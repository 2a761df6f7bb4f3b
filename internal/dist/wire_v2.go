package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/flatepool"
)

// The list-aware stripe encodings. v1 (and gvmr-cf1) carry one key per
// fragment, which represents fragment lists only implicitly — a pixel
// appearing k times is a k-fragment list. The v2 layouts make per-pixel
// fragment counts explicit: each stripe is a sequence of (key, count)
// runs followed by keyless fragment records, so a reader knows every
// pixel's list length before touching the fragments and repeated keys
// cost 8 bytes per *run* instead of 4 bytes per fragment. Negotiated
// via the existing Accept-/Content-Encoding handshake: new coordinators
// offer v2 alongside the v1 encodings, old workers ignore the unknown
// tokens and answer v1/cf1, old coordinators never offer v2 — both
// directions interoperate.
const (
	// EncodingListV2 is the identity v2 layout.
	EncodingListV2 = "gvmr-v2"
	// EncodingColumnar2 is the columnar flate transform over the v2
	// layout (the cf1 transform with run headers instead of per-fragment
	// keys).
	EncodingColumnar2 = "gvmr-cf2"
)

// v2 identity payload format (all little-endian):
//
//	repeat per stripe, ascending unit ID:
//	  int32  unit ID
//	  int32  run count
//	  runs × (int32 pixel key, int32 fragment count ≥ 1)
//	  Σcounts × 20-byte fragments: float32 R,G,B,A, float32 depth
//
// Runs are maximal: adjacent runs in one stripe never share a key, and
// every count is at least 1. That makes the layout canonical — any
// payload DecodeStripesV2 accepts re-encodes to identical bytes, the
// fixed-point property FuzzDecodeStripesV2 holds.
const (
	v2StripeHeaderBytes = 8
	v2RunBytes          = 8
	v2FragBytes         = composite.FragmentBytes - 4 // keyless record
)

// stripeRuns calls fn for each maximal run of equal consecutive keys in
// frags: the per-pixel (key, count) spans the v2 layouts carry.
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

// EncodeStripesV2 serialises stripes into the identity v2 payload.
func EncodeStripesV2(stripes []core.BrickStripe) []byte {
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

// DecodeStripesV2 parses an identity v2 payload. Like DecodeStripes it
// validates structure only, but structure here includes canonical form:
// run counts must be positive and adjacent runs must not share a key,
// so accepted payloads are exactly EncodeStripesV2's image.
func DecodeStripesV2(data []byte) ([]core.BrickStripe, error) {
	var stripes []core.BrickStripe
	off := 0
	for off < len(data) {
		if len(data)-off < v2StripeHeaderBytes {
			return nil, fmt.Errorf("dist: truncated v2 stripe header at byte %d", off)
		}
		brick := int32(binary.LittleEndian.Uint32(data[off:]))
		runs := int32(binary.LittleEndian.Uint32(data[off+4:]))
		off += v2StripeHeaderBytes
		if brick < 0 {
			return nil, fmt.Errorf("dist: negative unit ID %d", brick)
		}
		if runs < 0 || int64(runs)*v2RunBytes > int64(len(data)-off) {
			return nil, fmt.Errorf("dist: v2 stripe for unit %d claims %d runs beyond payload", brick, runs)
		}
		var total int64
		keys := make([]int32, runs)
		counts := make([]int32, runs)
		for i := int32(0); i < runs; i++ {
			keys[i] = int32(binary.LittleEndian.Uint32(data[off:]))
			counts[i] = int32(binary.LittleEndian.Uint32(data[off+4:]))
			off += v2RunBytes
			if counts[i] < 1 {
				return nil, fmt.Errorf("dist: v2 run %d of unit %d has count %d", i, brick, counts[i])
			}
			if i > 0 && keys[i] == keys[i-1] {
				return nil, fmt.Errorf("dist: v2 unit %d has non-maximal runs (key %d repeats)", brick, keys[i])
			}
			total += int64(counts[i])
		}
		if total*v2FragBytes > int64(len(data)-off) {
			return nil, fmt.Errorf("dist: v2 stripe for unit %d claims %d fragments beyond payload", brick, total)
		}
		s := core.BrickStripe{Brick: int(brick)}
		if total > 0 {
			s.Frags = make([]composite.Fragment, 0, total)
			for i := int32(0); i < runs; i++ {
				for c := int32(0); c < counts[i]; c++ {
					s.Frags = append(s.Frags, composite.Fragment{
						Key:   keys[i],
						R:     math.Float32frombits(binary.LittleEndian.Uint32(data[off:])),
						G:     math.Float32frombits(binary.LittleEndian.Uint32(data[off+4:])),
						B:     math.Float32frombits(binary.LittleEndian.Uint32(data[off+8:])),
						A:     math.Float32frombits(binary.LittleEndian.Uint32(data[off+12:])),
						Depth: math.Float32frombits(binary.LittleEndian.Uint32(data[off+16:])),
					})
					off += v2FragBytes
				}
			}
		}
		stripes = append(stripes, s)
	}
	return stripes, nil
}

// CompressStripesV2 serialises stripes into the EncodingColumnar2
// payload:
//
//	flate(
//	  uvarint stripe count
//	  repeat per stripe: uvarint unit ID, uvarint run count
//	  repeat per stripe: runs × (varint delta-coded key, uvarint count)
//	  5 channels × 4 byte planes × one byte per fragment
//	)
//
// The transform is cf1 with per-pixel run headers in place of
// per-fragment keys; it is lossless and exact, NaN payloads included.
func CompressStripesV2(stripes []core.BrickStripe) []byte {
	buf := flatepool.GetBuf()
	defer flatepool.PutBuf(buf)
	raw := binary.AppendUvarint((*buf)[:0], uint64(len(stripes)))
	total := 0
	for _, s := range stripes {
		raw = binary.AppendUvarint(raw, uint64(uint32(int32(s.Brick))))
		raw = binary.AppendUvarint(raw, uint64(countRuns(s.Frags)))
		total += len(s.Frags)
	}
	for _, s := range stripes {
		prev := int64(0)
		stripeRuns(s.Frags, func(key int32, count int) {
			raw = binary.AppendVarint(raw, int64(key)-prev)
			prev = int64(key)
			raw = binary.AppendUvarint(raw, uint64(count))
		})
	}
	*buf = appendPlanes(raw, stripes, total)
	return deflate(*buf)
}

// DecompressStripesV2 parses an EncodingColumnar2 payload. maxBytes
// bounds the decompressed size (zip-bomb guard); structural violations
// are errors, mirroring DecompressStripes. Canonical-form violations
// (zero counts, split runs) are rejected like DecodeStripesV2.
func DecompressStripesV2(data []byte, maxBytes int64) ([]core.BrickStripe, error) {
	buf := flatepool.GetBuf()
	defer flatepool.PutBuf(buf)
	if err := inflate(EncodingColumnar2, data, maxBytes, buf); err != nil {
		return nil, err
	}
	r := columnarReader{name: EncodingColumnar2, raw: *buf}
	// A run costs at least two header bytes (key varint + count uvarint)
	// plus one fragment's plane bytes.
	stripes, runCounts, runTotal, err := r.stripeTable("runs", planeBytes+2)
	if err != nil {
		return nil, err
	}
	// Every run still owes its two header bytes and every fragment its
	// plane bytes, so what is left of the stream bounds the fragments
	// before any run is read: keys go straight into one backing array,
	// allocated once and never past that bound.
	all := make([]composite.Fragment, (int64(len(r.raw)-r.pos)-2*runTotal)/planeBytes)
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
	readPlanes(all, planes)
	if len(stripes) == 0 {
		return nil, nil
	}
	return stripes, nil
}

// SanitizeStripes strips placeholder fragments from stripes and returns
// the clean stripes plus the number stripped. Placeholders are a
// kernel-internal sentinel (§3.1.1 cost parity) that every emit path
// already drops before recording stripes, so a placeholder here means a
// bug upstream — the worker strips it rather than shipping it (a NaN
// depth would survive compositing as a no-op, but the wire contract
// says stripes carry only surviving fragments) and surfaces the count
// in /stats. Stripes are only copied when a placeholder is found.
func SanitizeStripes(stripes []core.BrickStripe) ([]core.BrickStripe, int) {
	stripped := 0
	var out []core.BrickStripe
	for i, s := range stripes {
		dirty := false
		for _, f := range s.Frags {
			if f.IsPlaceholder() {
				dirty = true
				break
			}
		}
		if !dirty {
			if out != nil {
				out = append(out, s)
			}
			continue
		}
		if out == nil {
			out = append(out, stripes[:i]...)
		}
		clean := core.BrickStripe{Brick: s.Brick, Frags: make([]composite.Fragment, 0, len(s.Frags))}
		for _, f := range s.Frags {
			if f.IsPlaceholder() {
				stripped++
				continue
			}
			clean.Frags = append(clean.Frags, f)
		}
		out = append(out, clean)
	}
	if out == nil {
		return stripes, 0
	}
	return out, stripped
}

// acceptsEncoding reports whether an Accept-Encoding header value offers
// the named encoding.
func acceptsEncoding(header, name string) bool {
	for _, tok := range strings.Split(header, ",") {
		if n, _, _ := strings.Cut(strings.TrimSpace(tok), ";"); strings.TrimSpace(n) == name {
			return true
		}
	}
	return false
}

// negotiateEncoding picks the stripe encoding for a response given the
// request's Accept-Encoding: the densest mutually-understood layout,
// preferring compressed over identity and v2 (explicit per-pixel
// counts) over v1. An empty result is the identity v1 payload every
// daemon understands.
func negotiateEncoding(acceptHeader string) string {
	for _, enc := range []string{EncodingColumnar2, EncodingColumnar, EncodingListV2} {
		if acceptsEncoding(acceptHeader, enc) {
			return enc
		}
	}
	return ""
}

// EncodePayloadAs serialises stripes in the given negotiated encoding
// ("" = identity v1).
func EncodePayloadAs(stripes []core.BrickStripe, encoding string) ([]byte, error) {
	switch encoding {
	case "", "identity":
		return EncodeStripes(stripes), nil
	case EncodingListV2:
		return EncodeStripesV2(stripes), nil
	case EncodingColumnar:
		return CompressStripes(stripes), nil
	case EncodingColumnar2:
		return CompressStripesV2(stripes), nil
	default:
		return nil, fmt.Errorf("dist: unsupported stripe encoding %q", encoding)
	}
}
