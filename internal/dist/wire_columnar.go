package dist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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

// The plane test. A plane whose byte changes at more than 4/5 of its
// positions, and that takes at least storedMinValues distinct values in
// its first storedSample bytes, is rounding noise — the low mantissa
// bytes of the colour channels — that flate cannot shrink: such a plane
// is stored after the flate stream as it is, which saves deflating it
// and inflating it again. The value count keeps a plane that changes at
// every position but cycles through a few values, which flate shrinks,
// in the flate stream. A payload of fewer than storedMinFrags fragments
// keeps every plane packed.
const (
	storedMinFrags  = 256
	storedMinValues = 128
	storedSample    = 1024
	maskBytes       = 3 // the stored-plane mask: planeBytes bits, little-endian
)

// storedPlanes returns the mask of the planes — bit c*fragPlanes+p for
// byte p of channel c — that the plane test stores. planes is the plane
// section of total fragments.
func storedPlanes(planes []byte, total int) uint32 {
	if total < storedMinFrags {
		return 0
	}
	var mask uint32
	for k := 0; k < planeBytes; k++ {
		pl := planes[k*total : (k+1)*total]
		if 5*byteChanges(pl) <= 4*total {
			continue
		}
		var seen [256]bool
		values := 0
		for _, b := range pl[:min(total, storedSample)] {
			if !seen[b] {
				seen[b] = true
				values++
			}
		}
		if values >= storedMinValues {
			mask |= 1 << k
		}
	}
	return mask
}

// byteChanges counts the positions i > 0 where p[i] != p[i-1], eight at a
// time: a byte of the XOR of two overlapping words is nonzero where one
// changed, and (x&0x7f…)+0x7f… | x sets its high bit exactly then.
func byteChanges(p []byte) int {
	const low7, high = 0x7f7f7f7f7f7f7f7f, 0x8080808080808080
	n, i := 0, 0
	for ; i+9 <= len(p); i += 8 {
		x := binary.LittleEndian.Uint64(p[i:]) ^ binary.LittleEndian.Uint64(p[i+1:])
		n += bits.OnesCount64(((x & low7) + low7 | x) & high)
	}
	for i++; i < len(p); i++ {
		if p[i] != p[i-1] {
			n++
		}
	}
	return n
}

// inflate decompresses the flate section of data into buf and returns
// what follows it. maxBytes is the zip-bomb guard: at most maxBytes+1
// bytes are inflated, and held, before a payload is refused.
func inflate(name string, data []byte, maxBytes int64, buf *flatepool.Buf) ([]byte, error) {
	n, err := flatepool.Inflate(buf, data, maxBytes+1)
	if err != nil {
		return nil, fmt.Errorf("dist: %s inflate: %w", name, err)
	}
	if int64(len(*buf)) > maxBytes {
		return nil, fmt.Errorf("dist: %s payload inflates beyond %d bytes", name, maxBytes)
	}
	return data[n:], nil
}

// storedSection parses what follows the flate stream: nothing (mask 0),
// or the nonzero mask of the stored planes and their bytes.
func storedSection(tail []byte) (uint32, []byte, error) {
	if len(tail) == 0 {
		return 0, nil, nil
	}
	if len(tail) < maskBytes {
		return 0, nil, fmt.Errorf("dist: %s truncated plane mask", EncodingColumnar2)
	}
	mask := uint32(tail[0]) | uint32(tail[1])<<8 | uint32(tail[2])<<16
	if mask == 0 || mask >= 1<<planeBytes {
		return 0, nil, fmt.Errorf("dist: %s plane mask %#x is not a nonzero %d-bit mask", EncodingColumnar2, mask, planeBytes)
	}
	return mask, tail[maskBytes:], nil
}

// appendPlanes appends the plane section — 5 channels × 4 byte planes ×
// one byte per fragment, total fragments in all — to the columnar stream.
func appendPlanes(b []byte, stripes []core.BrickStripe, total int) []byte {
	off := len(b)
	b = slices.Grow(b, total*planeBytes)[:off+total*planeBytes]
	for c := 0; c < fragChannels; c++ {
		ch := b[off+c*fragPlanes*total:]
		p0, p1, p2, p3 := ch[:total], ch[total:2*total], ch[2*total:3*total], ch[3*total:4*total]
		i := 0
		for _, s := range stripes {
			for _, f := range s.Frags {
				var v uint32
				switch c {
				case 0:
					v = math.Float32bits(f.R)
				case 1:
					v = math.Float32bits(f.G)
				case 2:
					v = math.Float32bits(f.B)
				case 3:
					v = math.Float32bits(f.A)
				default:
					v = math.Float32bits(f.Depth)
				}
				p0[i], p1[i], p2[i], p3[i] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
				i++
			}
		}
	}
	return b
}

// readPlanes fills the float channels of frags from their byte planes,
// wherever each plane lies.
func readPlanes(frags []composite.Fragment, planes *[planeBytes][]byte) {
	n := len(frags)
	for c := 0; c < fragChannels; c++ {
		ch := planes[c*fragPlanes : (c+1)*fragPlanes]
		p0, p1, p2, p3 := ch[0][:n], ch[1][:n], ch[2][:n], ch[3][:n]
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

// columnarReader walks an EncodingColumnar2 payload: raw is its inflated
// stream, stored the planes that followed the flate stream, and mask
// says which planes those are.
type columnarReader struct {
	raw    []byte
	pos    int
	mask   uint32
	stored []byte
}

// avail is what is left of the payload, in both sections.
func (r *columnarReader) avail() int64 { return int64(len(r.raw)-r.pos) + int64(len(r.stored)) }

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
// cf2RunBytes of the rest of the payload: any count past that density is
// corrupt, and refusing it here bounds every later allocation by the
// payload's size.
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
		if count > uint64(r.avail()/cf2RunBytes) {
			return nil, nil, 0, fmt.Errorf("dist: %s stripe for unit %d claims %d runs beyond payload", EncodingColumnar2, unit, count)
		}
		stripes[i].Brick = int(unit)
		counts[i] = int(count)
		total += int64(count)
	}
	if total*cf2RunBytes > r.avail() {
		return nil, nil, 0, fmt.Errorf("dist: %s claims %d runs beyond payload", EncodingColumnar2, total)
	}
	return stripes, counts, total, nil
}

// fragBound bounds the fragments the payload can hold once each of runs
// key pairs has its two bytes: every fragment owes one byte per plane, in
// the section that holds the plane.
func (r *columnarReader) fragBound(runs int64) int64 {
	stored := int64(bits.OnesCount32(r.mask))
	bound := int64(math.MaxInt64)
	if stored > 0 {
		bound = int64(len(r.stored)) / stored
	}
	if packed := planeBytes - stored; packed > 0 {
		bound = min(bound, max(0, int64(len(r.raw)-r.pos)-2*runs)/packed)
	}
	return bound
}

// planes checks that what is left of the inflated stream is exactly the
// packed planes of total fragments and the stored section exactly the
// stored ones, and returns every plane where it lies.
func (r *columnarReader) planes(total int64) ([planeBytes][]byte, error) {
	var pl [planeBytes][]byte
	stored := int64(bits.OnesCount32(r.mask))
	if rest := int64(len(r.raw) - r.pos); rest != total*(planeBytes-stored) {
		return pl, fmt.Errorf("dist: %s packed plane section is %d bytes, want %d", EncodingColumnar2, rest, total*(planeBytes-stored))
	}
	if got := int64(len(r.stored)); got != total*stored {
		return pl, fmt.Errorf("dist: %s stored plane section is %d bytes, want %d", EncodingColumnar2, got, total*stored)
	}
	packed, kept := r.raw[r.pos:], r.stored
	for k := range pl {
		if r.mask&(1<<k) != 0 {
			pl[k], kept = kept[:total], kept[total:]
		} else {
			pl[k], packed = packed[:total], packed[total:]
		}
	}
	return pl, nil
}
