package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/flatepool"
)

// fragChannels and fragPlanes shape the columnar transform: five float32
// channels (R,G,B,A,Depth), each split into its four little-endian byte
// planes so flate sees long runs of structurally similar bytes (sign and
// exponent planes of neighbouring fragments are near-constant).
const (
	fragChannels = 5
	fragPlanes   = 4
	planeBytes   = fragChannels * fragPlanes // per fragment
)

// wireFlateLevel is the deflate level of every columnar payload, chosen
// by measurement (DESIGN.md §11): on real stripes level 4 is within 1.1 %
// of level 9's size — what the wire model charges — at a sixth of its
// CPU, which the wire model does not charge but the frame pays.
// TestWireCodecSizeGuard holds the size side of that trade.
const wireFlateLevel = 4

// deflate returns the flate stream of raw in a slice of its own: with the
// codec state pooled, an encode's only steady-state allocation. Any deflate
// stream is a valid cf2 body: level and pooling are invisible to decoders.
func deflate(raw []byte) []byte {
	out := flatepool.GetBuf()
	defer flatepool.PutBuf(out)
	flatepool.Deflate(out, raw, wireFlateLevel)
	return bytes.Clone(*out)
}

// inflate decompresses data into buf. maxBytes is the zip-bomb guard: at
// most maxBytes+1 bytes are inflated, and held, before a payload is refused.
func inflate(name string, data []byte, maxBytes int64, buf *flatepool.Buf) error {
	if err := flatepool.Inflate(buf, data, maxBytes+1); err != nil {
		return fmt.Errorf("dist: %s inflate: %w", name, err)
	}
	if int64(len(*buf)) > maxBytes {
		return fmt.Errorf("dist: %s payload inflates beyond %d bytes", name, maxBytes)
	}
	return nil
}

// appendPlanes appends the plane section — 5 channels × 4 byte planes ×
// one byte per fragment, total fragments in all — to the columnar stream.
func appendPlanes(b []byte, stripes []core.BrickStripe, total int) []byte {
	off := len(b)
	b = slices.Grow(b, total*planeBytes)[:off+total*planeBytes]
	var pl [planeBytes][]byte
	for k := range pl {
		pl[k] = b[off+k*total : off+(k+1)*total]
	}
	i := 0
	for _, s := range stripes {
		for _, f := range s.Frags {
			for c, v := range [fragChannels]uint32{
				math.Float32bits(f.R), math.Float32bits(f.G), math.Float32bits(f.B),
				math.Float32bits(f.A), math.Float32bits(f.Depth),
			} {
				for p := 0; p < fragPlanes; p++ {
					pl[c*fragPlanes+p][i] = byte(v >> (8 * p))
				}
			}
			i++
		}
	}
	return b
}

// readPlanes fills the float channels of frags from their plane section.
func readPlanes(frags []composite.Fragment, planes []byte) {
	n := len(frags)
	for c := 0; c < fragChannels; c++ {
		ch := planes[c*fragPlanes*n:]
		p0, p1, p2, p3 := ch[:n], ch[n:2*n], ch[2*n:3*n], ch[3*n:4*n]
		for i := range frags {
			v := math.Float32frombits(uint32(p0[i]) | uint32(p1[i])<<8 | uint32(p2[i])<<16 | uint32(p3[i])<<24)
			switch f := &frags[i]; c {
			case 0:
				f.R = v
			case 1:
				f.G = v
			case 2:
				f.B = v
			case 3:
				f.A = v
			default:
				f.Depth = v
			}
		}
	}
}

// cf2RunBytes is the least one cf2 run occupies: two header bytes (key
// varint + count uvarint) plus one fragment's plane bytes.
const cf2RunBytes = planeBytes + 2

// columnarReader walks an inflated EncodingColumnar2 stream.
type columnarReader struct {
	raw []byte
	pos int
}

func (r *columnarReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.raw[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("dist: %s truncated varint at byte %d", EncodingColumnar2, r.pos)
	}
	r.pos += n
	return v, nil
}

// key reads one delta-coded pixel key.
func (r *columnarReader) key(prev int64) (int64, error) {
	d, n := binary.Varint(r.raw[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("dist: %s truncated key varint at byte %d", EncodingColumnar2, r.pos)
	}
	r.pos += n
	if k := prev + d; k >= math.MinInt32 && k <= math.MaxInt32 {
		return k, nil
	}
	return 0, fmt.Errorf("dist: %s key %d overflows int32", EncodingColumnar2, prev+d)
}

// stripeTable parses the stripe count and the per-stripe (unit ID, run
// count) table, and totals the counts. Each run occupies at least
// cf2RunBytes of the rest of the stream: any count past that density is
// corrupt, and refusing it here bounds every later allocation by the
// inflated size.
func (r *columnarReader) stripeTable() ([]core.BrickStripe, []int, int64, error) {
	nStripes, err := r.uvarint()
	if err != nil {
		return nil, nil, 0, err
	}
	// Each stripe costs at least two table bytes.
	if nStripes > uint64(len(r.raw)-r.pos) {
		return nil, nil, 0, fmt.Errorf("dist: %s claims %d stripes in %d bytes", EncodingColumnar2, nStripes, len(r.raw)-r.pos)
	}
	stripes := make([]core.BrickStripe, nStripes)
	counts := make([]int, nStripes)
	var total int64
	for i := range stripes {
		unit, err := r.uvarint()
		if err != nil {
			return nil, nil, 0, err
		}
		if unit > math.MaxInt32 {
			return nil, nil, 0, fmt.Errorf("dist: %s unit ID %d overflows int32", EncodingColumnar2, unit)
		}
		count, err := r.uvarint()
		if err != nil {
			return nil, nil, 0, err
		}
		if count > uint64(int64(len(r.raw)-r.pos)/cf2RunBytes) {
			return nil, nil, 0, fmt.Errorf("dist: %s stripe for unit %d claims %d runs beyond payload", EncodingColumnar2, unit, count)
		}
		stripes[i].Brick = int(unit)
		counts[i] = int(count)
		total += int64(count)
	}
	if total*cf2RunBytes > int64(len(r.raw)-r.pos) {
		return nil, nil, 0, fmt.Errorf("dist: %s claims %d runs beyond payload", EncodingColumnar2, total)
	}
	return stripes, counts, total, nil
}

// planes checks that what is left of the stream is exactly the plane
// section of total fragments, and returns it.
func (r *columnarReader) planes(total int64) ([]byte, error) {
	if rest := int64(len(r.raw) - r.pos); rest != total*planeBytes {
		return nil, fmt.Errorf("dist: %s plane section is %d bytes, want %d", EncodingColumnar2, rest, total*planeBytes)
	}
	return r.raw[r.pos:], nil
}
