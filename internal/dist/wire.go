package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"

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
	// the response body, or pushed to the exchange by a reduce-mode /map
	// batch. It, and HeaderUnitCharges on a /map reply, are required: a
	// reply that lacks one is counted corrupt.
	HeaderFragCount = "X-Gvmr-Frag-Count"
	// HeaderStripeDigest is the SHA-256 of the exact body, the bytes as
	// sent. The receiver recomputes it; any corruption in flight (or a
	// buggy worker) turns into a retry on another node instead of wrong
	// bits.
	HeaderStripeDigest = "X-Gvmr-Stripe-Digest"
	// HeaderReduced marks a map response whose stripes went to the
	// exchange's reducers instead of the response body ("1").
	HeaderReduced = "X-Gvmr-Reduced"
)

// The stripe encodings. Every hop — map response, peer push, collect
// response — carries EncodingColumnar2, labelled with Content-Encoding;
// a decoder accepts that one name and refuses every other, the identity
// layout's included.
const (
	// EncodingListV2 is the identity layout. No hop carries it: it is
	// the raw-size reference the columnar form is measured against.
	EncodingListV2 = "gvmr-v2"
	// EncodingColumnar2 is the same layout as a columnar transform
	// (varint headers, delta-coded pixel keys, byte-plane-split float
	// channels — wire_columnar.go) under stdlib flate.
	EncodingColumnar2 = "gvmr-cf2"
)

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
	// HeaderReduced set. A worker that refuses the plan answers 400,
	// which the coordinator treats as a reduce failure and falls back to
	// the classic path — same bits, different topology.
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

	Reducers []ReduceTarget `json:"reducers"`
}

// Identity payload format (all little-endian):
//
//	repeat per stripe, ascending unit ID:
//	  int32  unit ID
//	  int32  run count
//	  runs × (int32 pixel key, int32 fragment count ≥ 1)
//	  Σcounts × 20-byte fragments: float32 R,G,B,A, float32 depth
//
// A stripe is a sequence of (key, count) runs followed by keyless
// fragment records: per-pixel fragment lists are explicit, so a reader
// knows every pixel's list length before touching the fragments and a
// pixel a non-convex unit hits k times costs 8 bytes, not 4k. Fragment
// floats are raw IEEE-754 bit patterns — the renderer's exact bits, like
// /render?format=raw. Runs are maximal: adjacent runs in one stripe
// never share a key, and every count is at least 1, so the layout is
// canonical: a stripe set has exactly one encoding.
const (
	v2StripeHeaderBytes = 8
	v2RunBytes          = 8
	v2FragBytes         = composite.FragmentBytes - 4 // keyless record
)

// stripeRuns calls fn for each maximal run of equal consecutive keys in
// frags: the per-pixel (key, count) spans both encodings carry.
func stripeRuns(frags []composite.Fragment, fn func(key int32, count int)) {
	for i := 0; i < len(frags); {
		j := i + 1
		for j < len(frags) && frags[j].Key == frags[i].Key {
			j++
		}
		fn(frags[i].Key, j-i)
		i = j
	}
}

// countRuns returns the number of maximal equal-key runs in frags.
func countRuns(frags []composite.Fragment) int {
	n := 0
	stripeRuns(frags, func(int32, int) { n++ })
	return n
}

// encodeV2 serialises stripes into the identity payload.
func encodeV2(stripes []core.BrickStripe) []byte {
	n := 0
	for _, s := range stripes {
		n += v2StripeHeaderBytes + countRuns(s.Frags)*v2RunBytes + len(s.Frags)*v2FragBytes
	}
	buf := make([]byte, n)
	off := 0
	for _, s := range stripes {
		binary.LittleEndian.PutUint32(buf[off:], uint32(int32(s.Brick)))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(int32(countRuns(s.Frags))))
		off += v2StripeHeaderBytes
		stripeRuns(s.Frags, func(key int32, count int) {
			binary.LittleEndian.PutUint32(buf[off:], uint32(key))
			binary.LittleEndian.PutUint32(buf[off+4:], uint32(int32(count)))
			off += v2RunBytes
		})
		for _, f := range s.Frags {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(f.R))
			binary.LittleEndian.PutUint32(buf[off+4:], math.Float32bits(f.G))
			binary.LittleEndian.PutUint32(buf[off+8:], math.Float32bits(f.B))
			binary.LittleEndian.PutUint32(buf[off+12:], math.Float32bits(f.A))
			binary.LittleEndian.PutUint32(buf[off+16:], math.Float32bits(f.Depth))
			off += v2FragBytes
		}
	}
	return buf
}

// encodeCF2 serialises stripes into the EncodingColumnar2 payload:
//
//	flate(
//	  uvarint stripe count
//	  repeat per stripe: uvarint unit ID, uvarint run count
//	  repeat per stripe: runs × (varint delta-coded key, uvarint count)
//	  the packed byte planes, one byte per fragment each
//	)
//	if any plane is stored:
//	  3-byte little-endian mask: bit c*4+p set = byte p of channel c stored
//	  the stored byte planes, one byte per fragment each
//
// The byte planes are the 5 channels (R, G, B, A, depth) × 4
// little-endian bytes of every fragment's float32s, in that order within
// each section. Keys inside a stripe mostly ascend (the caster emits
// pixels in scan order), so deltas are small varints, reset per stripe;
// the sign, exponent and high mantissa planes compress on the smoothness
// of adjacent rays. The low mantissa planes of the colours are rounding
// noise: the plane test (storedPlanes) stores them after the flate
// stream, which is self-delimiting, instead of deflating them. A payload
// that stores nothing is the flate stream alone. The transform is
// lossless and exact: the decoded fragments carry the same bit patterns,
// NaNs included.
func encodeCF2(stripes []core.BrickStripe) []byte {
	buf := flatepool.GetBuf()
	defer flatepool.PutBuf(buf)
	var head, total int
	*buf, head, total = appendColumnar((*buf)[:0], stripes)
	planes := (*buf)[head:]
	mask := storedPlanes(planes, total)
	var parts [1 + planeBytes][]byte
	in := append(parts[:0], (*buf)[:head])
	for k := 0; k < planeBytes; k++ {
		if mask&(1<<k) == 0 {
			in = append(in, planes[k*total:(k+1)*total])
		}
	}
	out := flatepool.GetBuf()
	defer flatepool.PutBuf(out)
	flatepool.Deflate(out, wireFlateLevel, in...)
	payload := make([]byte, len(*out), len(*out)+maskBytes+bits.OnesCount32(mask)*total)
	copy(payload, *out)
	if mask == 0 {
		return payload
	}
	payload = append(payload, byte(mask), byte(mask>>8), byte(mask>>16))
	for k := 0; k < planeBytes; k++ {
		if mask&(1<<k) != 0 {
			payload = append(payload, planes[k*total:(k+1)*total]...)
		}
	}
	return payload
}

// appendColumnar appends the columnar stream of stripes with every plane
// packed: the stripe table, the keys, and from head on the plane section
// of total fragments.
func appendColumnar(b []byte, stripes []core.BrickStripe) (_ []byte, head, total int) {
	b = binary.AppendUvarint(b, uint64(len(stripes)))
	for _, s := range stripes {
		b = binary.AppendUvarint(b, uint64(uint32(int32(s.Brick))))
		b = binary.AppendUvarint(b, uint64(countRuns(s.Frags)))
		total += len(s.Frags)
	}
	for _, s := range stripes {
		prev := int64(0)
		stripeRuns(s.Frags, func(key int32, count int) {
			b = binary.AppendVarint(b, int64(key)-prev)
			prev = int64(key)
			b = binary.AppendUvarint(b, uint64(count))
		})
	}
	head = len(b)
	return appendPlanes(b, stripes, total), head, total
}

// decodeCF2 parses an EncodingColumnar2 payload. maxBytes bounds the
// decompressed size of its flate stream (zip-bomb guard); structural
// violations — truncation, counts beyond the payload, out-of-range units
// or keys, a bad plane mask, either plane section longer or shorter than
// its planes, trailing garbage — and canonical-form violations (zero
// counts, split runs) are errors.
func decodeCF2(data []byte, maxBytes int64) ([]core.BrickStripe, error) {
	buf := flatepool.GetBuf()
	defer flatepool.PutBuf(buf)
	tail, err := inflate(EncodingColumnar2, data, maxBytes, buf)
	if err != nil {
		return nil, err
	}
	mask, stored, err := storedSection(tail)
	if err != nil {
		return nil, err
	}
	r := columnarReader{raw: *buf, mask: mask, stored: stored}
	stripes, runCounts, runTotal, err := r.stripeTable()
	if err != nil {
		return nil, err
	}
	// Every run still owes its two header bytes and every fragment its
	// plane bytes, so what is left of the payload bounds the fragments
	// before any run is read: keys go straight into one backing array,
	// allocated once and never past that bound.
	all := make([]composite.Fragment, r.fragBound(runTotal))
	n := 0
	for i, runs := range runCounts {
		start, prev := n, int64(0)
		for j := 0; j < runs; j++ {
			k, err := r.key(prev)
			if err != nil {
				return nil, err
			}
			if j > 0 && k == prev {
				return nil, fmt.Errorf("dist: %s unit %d has non-maximal runs (key %d repeats)", EncodingColumnar2, stripes[i].Brick, k)
			}
			prev = k
			count, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			if count < 1 {
				return nil, fmt.Errorf("dist: %s run %d of unit %d has count 0", EncodingColumnar2, j, stripes[i].Brick)
			}
			if count > uint64(len(all)-n) {
				return nil, fmt.Errorf("dist: %s run claims %d fragments beyond payload", EncodingColumnar2, count)
			}
			for ; count > 0; count-- {
				all[n].Key = int32(k)
				n++
			}
		}
		if n > start {
			stripes[i].Frags = all[start:n:n]
		}
	}
	all = all[:n]
	planes, err := r.planes(int64(n))
	if err != nil {
		return nil, err
	}
	readPlanes(all, &planes)
	if len(stripes) == 0 {
		return nil, nil
	}
	return stripes, nil
}

// EncodePayloadAs serialises stripes in the named encoding: the wire's
// EncodingColumnar2, or the identity EncodingListV2 as a raw-size
// reference.
func EncodePayloadAs(stripes []core.BrickStripe, encoding string) ([]byte, error) {
	switch encoding {
	case EncodingListV2:
		return encodeV2(stripes), nil
	case EncodingColumnar2:
		return encodeCF2(stripes), nil
	default:
		return nil, fmt.Errorf("dist: unsupported stripe encoding %q", encoding)
	}
}

// DecodePayload parses a wire payload labelled with its Content-Encoding.
// Only EncodingColumnar2 travels: any other label, EncodingListV2's
// included, is an error, never a guess. maxBytes bounds the decompressed
// size of the payload.
func DecodePayload(encoding string, data []byte, maxBytes int64) ([]core.BrickStripe, error) {
	if encoding != EncodingColumnar2 {
		return nil, fmt.Errorf("dist: unsupported content encoding %q", encoding)
	}
	return decodeCF2(data, maxBytes)
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
