package dist

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"

	"gvmr/internal/core"
	"gvmr/internal/gpu"
)

// HeaderUnitCharges carries a /map reply's unit records — what mapping
// each unit charged the engine (core.UnitCharges), in the batch's unit
// order — for the coordinator to replay (DESIGN.md §9). Both topologies'
// replies carry it. Its value is the standard base64 of:
//
//	uvarint reducers R
//	uvarint unit count
//	repeat per unit: uvarint unit ID, uvarint brick count
//	  repeat per brick: uvarint box X, Y, Z; uvarint ran (0 or 1)
//	    if ran: uvarint threads, samples, samples skipped, cells,
//	            records emitted, rays hit, read-back bytes;
//	            R × uvarint fragments per reducer;
//	            uvarint flush count, flushes × uvarint reducer
const HeaderUnitCharges = "X-Gvmr-Unit-Charges"

// encodeCharges serialises a batch's unit records for reducers modelled
// reducers.
func encodeCharges(reducers int, units []core.UnitCharges) string {
	b := binary.AppendUvarint(nil, uint64(reducers))
	b = binary.AppendUvarint(b, uint64(len(units)))
	for _, u := range units {
		b = binary.AppendUvarint(b, uint64(u.Unit))
		b = binary.AppendUvarint(b, uint64(len(u.Bricks)))
		for _, br := range u.Bricks {
			for _, v := range []int{br.Box.X, br.Box.Y, br.Box.Z} {
				b = binary.AppendUvarint(b, uint64(v))
			}
			if !br.Ran {
				b = append(b, 0)
				continue
			}
			b = append(b, 1)
			k := br.Kernel
			for _, v := range []int64{k.Threads, k.Samples, k.SamplesSkipped, k.Cells, k.Emitted, k.RaysHit, br.Readback} {
				b = binary.AppendUvarint(b, uint64(v))
			}
			for _, n := range br.Frags {
				b = binary.AppendUvarint(b, uint64(n))
			}
			b = binary.AppendUvarint(b, uint64(len(br.Flushes)))
			for _, r := range br.Flushes {
				b = binary.AppendUvarint(b, uint64(r))
			}
		}
	}
	return base64.StdEncoding.EncodeToString(b)
}

// chargeReader reads the uvarints of a charges record.
type chargeReader struct {
	b   []byte
	err error
}

// next reads one value in [0, max]; a malformed, overlong or out-of-range
// value sets the reader's error and reads 0.
func (r *chargeReader) next(max uint64) int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n <= 0:
		r.err = fmt.Errorf("dist: truncated or overlong value in %s", HeaderUnitCharges)
	case v > max:
		r.err = fmt.Errorf("dist: %s value %d above %d", HeaderUnitCharges, v, max)
	default:
		r.b = r.b[n:]
		return int64(v)
	}
	return 0
}

// count reads a length: every element it counts takes at least one more
// byte, so no length exceeds what is left and allocations stay bounded
// by the record's size.
func (r *chargeReader) count() int { return int(r.next(uint64(len(r.b)))) }

// decodeCharges parses a HeaderUnitCharges value. It checks the record's
// structure only; core.Replay.Check judges what the counts claim.
func decodeCharges(s string) ([]core.UnitCharges, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil || len(raw) == 0 {
		return nil, fmt.Errorf("dist: missing or bad %s header", HeaderUnitCharges)
	}
	r := &chargeReader{b: raw}
	reducers := int(r.next(1 << 20))
	if r.err == nil && reducers < 1 {
		r.err = fmt.Errorf("dist: %s has no reducers", HeaderUnitCharges)
	}
	units := make([]core.UnitCharges, r.count())
	for i := range units {
		u := &units[i]
		u.Unit = int(r.next(core.MaxCharge))
		u.Bricks = make([]core.BrickCharges, r.count())
		for j := range u.Bricks {
			br := &u.Bricks[j]
			br.Box.X, br.Box.Y, br.Box.Z = int(r.next(core.MaxCharge)), int(r.next(core.MaxCharge)), int(r.next(core.MaxCharge))
			if br.Ran = r.next(1) == 1; !br.Ran {
				continue
			}
			br.Kernel = gpu.Stats{
				Threads: r.next(core.MaxCharge), Samples: r.next(core.MaxCharge),
				SamplesSkipped: r.next(core.MaxCharge), Cells: r.next(core.MaxCharge),
				Emitted: r.next(core.MaxCharge), RaysHit: r.next(core.MaxCharge),
			}
			br.Readback = r.next(core.MaxCharge)
			if r.err == nil && reducers > len(r.b) {
				r.err = fmt.Errorf("dist: %s brick of %d reducer counts in %d bytes", HeaderUnitCharges, reducers, len(r.b))
			}
			if r.err != nil {
				break
			}
			br.Frags = make([]int64, reducers)
			for k := range br.Frags {
				br.Frags[k] = r.next(core.MaxCharge)
			}
			if n := r.count(); n > 0 {
				br.Flushes = make([]int, n)
				for k := range br.Flushes {
					br.Flushes[k] = int(r.next(uint64(reducers - 1)))
				}
			}
		}
		if r.err != nil {
			return nil, r.err
		}
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("dist: %d trailing bytes in %s", len(r.b), HeaderUnitCharges)
	}
	if r.err != nil {
		return nil, r.err
	}
	return units, nil
}
