package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/flatepool"
)

// HTTP surface of the distributed map endpoint.
const (
	// MapPath is the worker endpoint: POST a JSON MapRequest, receive the
	// binary stripe payload.
	MapPath = "/map"
	// ReducePath is the worker-to-worker exchange endpoint: a mapper
	// POSTs the stripe payload filtered to one reducer's pixel range
	// (query: ?ex=<exchange>&lo=<lo>&hi=<hi>).
	ReducePath = "/reduce"
	// CollectPath is the coordinator-facing end of an exchange: POST a
	// JSON CollectRequest, receive the reducer's composited pixel range
	// as a sparse result stripe.
	CollectPath = "/reduce/collect"
	// HeaderFragCount is the total fragment count across all stripes in
	// the response body.
	HeaderFragCount = "X-Gvmr-Frag-Count"
	// HeaderMapSeconds is the virtual duration of the worker's map job
	// (its simulated makespan, not wall time), in seconds.
	HeaderMapSeconds = "X-Gvmr-Map-Seconds"
	// HeaderStripeDigest is the SHA-256 of the exact response body (the
	// bytes as sent, compressed when compression was negotiated). The
	// coordinator recomputes it; any corruption in flight (or a buggy
	// worker) turns into a retry on another node instead of wrong bits.
	HeaderStripeDigest = "X-Gvmr-Stripe-Digest"
	// HeaderReduced marks a map response whose stripes went to the
	// exchange's reducers instead of the response body ("1").
	HeaderReduced = "X-Gvmr-Reduced"
	// HeaderReduceSeconds is the reducer's modeled composite charge for
	// its pixel range, in virtual seconds (collect responses).
	HeaderReduceSeconds = "X-Gvmr-Reduce-Seconds"
	// HeaderExchangeBytes and HeaderExchangeMsgs are the bytes and
	// messages a reducer received over the peer exchange (collect
	// responses) — in-process self-deliveries count zero.
	HeaderExchangeBytes = "X-Gvmr-Exchange-Bytes"
	HeaderExchangeMsgs  = "X-Gvmr-Exchange-Msgs"
)

// EncodingColumnar names the negotiated stripe compression: a columnar
// transform (varint stripe headers, per-stripe delta-zigzag pixel keys,
// byte-plane-split float channels) under stdlib flate. Advertised via
// Accept-Encoding and confirmed via Content-Encoding, so either side may
// be older and the exchange degrades to the identity v1 payload.
const EncodingColumnar = "gvmr-cf1"

// MapRequest asks a worker to run the map phase for a batch of bricks.
type MapRequest struct {
	Job    JobSpec `json:"job"`
	Bricks []int   `json:"bricks"`
	// GridCounts is the coordinator's planned brick-grid factorisation.
	// The worker plans its own grid from Job and refuses the batch when
	// the factorisations differ — a configuration mismatch (different
	// GPU model, different bricking policy version) must fail loudly,
	// never render different bricks.
	GridCounts [3]int `json:"grid_counts"`
	// Reduce, when non-nil, turns the batch into one leg of a
	// distributed reduce: instead of returning stripes, the worker
	// pushes each reducer's pixel range to its /reduce endpoint (its own
	// range is delivered in-process) and returns an empty body with
	// HeaderReduced set. Workers predating the field reject the request
	// (DisallowUnknownFields), which the coordinator treats as a reduce
	// failure and falls back to the classic path — mixed fleets degrade,
	// never diverge.
	Reduce *ReducePlan `json:"reduce,omitempty"`
}

// ReduceTarget is one reducer in an exchange: the worker owning the
// half-open pixel-key range [Lo, Hi).
type ReduceTarget struct {
	Addr string `json:"addr"`
	Lo   int32  `json:"lo"`
	Hi   int32  `json:"hi"`
}

// ReducePlan tells a mapper where every reducer in its exchange lives.
// All mappers in one exchange receive the identical Reducers slice
// (contiguous ranges ordered by reducer index, covering the image).
type ReducePlan struct {
	// Exchange identifies the session; reducers keep per-exchange state
	// until the coordinator collects or the session expires.
	Exchange string `json:"exchange"`
	// Self is the index in Reducers of the mapper itself, or -1 when the
	// mapper is not a reducer; its own range skips the wire entirely.
	Self int `json:"self"`
	// Compress applies EncodingColumnar to the pushed payloads.
	Compress bool `json:"compress,omitempty"`

	Reducers []ReduceTarget `json:"reducers"`
}

// Stripe payload format (all little-endian):
//
//	repeat per stripe, ascending brick ID:
//	  int32  brick ID
//	  int32  fragment count
//	  count × 24-byte fragments: int32 key, float32 R,G,B,A, float32 depth
//
// Fragment floats are raw IEEE-754 bit patterns — the renderer's exact
// bits, like /render?format=raw.
const stripeHeaderBytes = 8

// EncodeStripes serialises stripes into the wire payload.
func EncodeStripes(stripes []core.BrickStripe) []byte {
	n := 0
	for _, s := range stripes {
		n += stripeHeaderBytes + len(s.Frags)*composite.FragmentBytes
	}
	buf := make([]byte, n)
	off := 0
	for _, s := range stripes {
		binary.LittleEndian.PutUint32(buf[off:], uint32(int32(s.Brick)))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(int32(len(s.Frags))))
		off += stripeHeaderBytes
		for _, f := range s.Frags {
			binary.LittleEndian.PutUint32(buf[off:], uint32(f.Key))
			binary.LittleEndian.PutUint32(buf[off+4:], math.Float32bits(f.R))
			binary.LittleEndian.PutUint32(buf[off+8:], math.Float32bits(f.G))
			binary.LittleEndian.PutUint32(buf[off+12:], math.Float32bits(f.B))
			binary.LittleEndian.PutUint32(buf[off+16:], math.Float32bits(f.A))
			binary.LittleEndian.PutUint32(buf[off+20:], math.Float32bits(f.Depth))
			off += composite.FragmentBytes
		}
	}
	return buf
}

// DecodeStripes parses a wire payload back into stripes. It validates
// structure only (framing, counts); semantic checks — do the brick IDs
// match the request — are the coordinator's job.
func DecodeStripes(data []byte) ([]core.BrickStripe, error) {
	var stripes []core.BrickStripe
	off := 0
	for off < len(data) {
		if len(data)-off < stripeHeaderBytes {
			return nil, fmt.Errorf("dist: truncated stripe header at byte %d", off)
		}
		brick := int32(binary.LittleEndian.Uint32(data[off:]))
		count := int32(binary.LittleEndian.Uint32(data[off+4:]))
		off += stripeHeaderBytes
		if brick < 0 {
			return nil, fmt.Errorf("dist: negative brick ID %d", brick)
		}
		if count < 0 || int64(count)*composite.FragmentBytes > int64(len(data)-off) {
			return nil, fmt.Errorf("dist: stripe for brick %d claims %d fragments beyond payload", brick, count)
		}
		s := core.BrickStripe{Brick: int(brick)}
		if count > 0 {
			s.Frags = make([]composite.Fragment, count)
			for i := range s.Frags {
				s.Frags[i] = composite.Fragment{
					Key:   int32(binary.LittleEndian.Uint32(data[off:])),
					R:     math.Float32frombits(binary.LittleEndian.Uint32(data[off+4:])),
					G:     math.Float32frombits(binary.LittleEndian.Uint32(data[off+8:])),
					B:     math.Float32frombits(binary.LittleEndian.Uint32(data[off+12:])),
					A:     math.Float32frombits(binary.LittleEndian.Uint32(data[off+16:])),
					Depth: math.Float32frombits(binary.LittleEndian.Uint32(data[off+20:])),
				}
				off += composite.FragmentBytes
			}
		}
		stripes = append(stripes, s)
	}
	return stripes, nil
}

// CompressStripes serialises stripes into the EncodingColumnar payload:
//
//	flate(
//	  uvarint stripe count
//	  repeat per stripe: uvarint brick ID, uvarint fragment count
//	  repeat per stripe: varint delta-coded pixel keys (reset per stripe)
//	  5 channels × 4 byte planes × one byte per fragment
//	)
//
// Keys inside a stripe ascend (the caster emits pixels in scan order),
// so deltas are small positive varints; the float planes compress on the
// smoothness of adjacent rays. The transform is lossless and exact: the
// decoded fragments carry the same bit patterns, NaNs included.
func CompressStripes(stripes []core.BrickStripe) []byte {
	buf := flatepool.GetBuf()
	defer flatepool.PutBuf(buf)
	raw := binary.AppendUvarint((*buf)[:0], uint64(len(stripes)))
	total := 0
	for _, s := range stripes {
		raw = binary.AppendUvarint(raw, uint64(uint32(int32(s.Brick))))
		raw = binary.AppendUvarint(raw, uint64(len(s.Frags)))
		total += len(s.Frags)
	}
	for _, s := range stripes {
		prev := int64(0)
		for _, f := range s.Frags {
			raw = binary.AppendVarint(raw, int64(f.Key)-prev)
			prev = int64(f.Key)
		}
	}
	*buf = appendPlanes(raw, stripes, total)
	return deflate(*buf)
}

// DecompressStripes parses an EncodingColumnar payload. maxBytes bounds
// the decompressed size (zip-bomb guard); structural violations —
// truncation, counts beyond the payload, out-of-range bricks or keys,
// trailing garbage — are errors, mirroring DecodeStripes.
func DecompressStripes(data []byte, maxBytes int64) ([]core.BrickStripe, error) {
	buf := flatepool.GetBuf()
	defer flatepool.PutBuf(buf)
	if err := inflate(EncodingColumnar, data, maxBytes, buf); err != nil {
		return nil, err
	}
	r := columnarReader{name: EncodingColumnar, raw: *buf}
	// A fragment costs at least one key byte plus its plane bytes.
	stripes, counts, total, err := r.stripeTable("fragments", planeBytes+1)
	if err != nil {
		return nil, err
	}
	// One backing array for the payload's fragments, sized from the
	// counts the table just bounded.
	all := make([]composite.Fragment, total)
	n := 0
	for i, count := range counts {
		frags := all[n : n+count : n+count]
		n += count
		prev := int64(0)
		for j := range frags {
			if prev, err = r.key(prev); err != nil {
				return nil, err
			}
			frags[j].Key = int32(prev)
		}
		if count > 0 {
			stripes[i].Frags = frags
		}
	}
	planes, err := r.planes(total)
	if err != nil {
		return nil, err
	}
	readPlanes(all, planes)
	if len(stripes) == 0 {
		return nil, nil
	}
	return stripes, nil
}

// EncodePayload serialises stripes for the wire, compressed when the
// peer negotiated it. The returned encoding is the Content-Encoding
// value ("" = identity v1).
func EncodePayload(stripes []core.BrickStripe, compress bool) ([]byte, string) {
	if compress {
		return CompressStripes(stripes), EncodingColumnar
	}
	return EncodeStripes(stripes), ""
}

// DecodePayload parses a wire payload according to its Content-Encoding.
// maxBytes bounds the decompressed size of compressed payloads.
func DecodePayload(encoding string, data []byte, maxBytes int64) ([]core.BrickStripe, error) {
	switch encoding {
	case "", "identity":
		return DecodeStripes(data)
	case EncodingListV2:
		return DecodeStripesV2(data)
	case EncodingColumnar:
		return DecompressStripes(data, maxBytes)
	case EncodingColumnar2:
		return DecompressStripesV2(data, maxBytes)
	default:
		return nil, fmt.Errorf("dist: unsupported content encoding %q", encoding)
	}
}

// acceptsColumnar reports whether an Accept-Encoding header value offers
// EncodingColumnar.
func acceptsColumnar(header string) bool {
	return acceptsEncoding(header, EncodingColumnar)
}

// PayloadDigest is the hex SHA-256 of a stripe payload — the value of
// HeaderStripeDigest.
func PayloadDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// encodeMapRequest marshals the request body.
func encodeMapRequest(req MapRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding map request: %w", err)
	}
	return body, nil
}
