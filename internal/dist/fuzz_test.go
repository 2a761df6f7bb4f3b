package dist

import (
	"reflect"
	"testing"

	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/gpu"
	"gvmr/internal/volume"
)

// FuzzDecodeStripes drives the wire decoder, gvmr-cf2, with arbitrary
// bytes. Beyond not panicking, it round-trips semantically: a
// fuzzer-found payload may use non-minimal varints, a different flate
// framing or a different choice of stored planes, so the invariant is
// decode → re-compress → decode = the same fragments bit for bit (NaN
// payloads included). The identity-layout seeds stay as inputs the
// decoder must refuse or parse without panicking.
//
// The decompressed-size bound stays small so a crafted flate bomb costs
// the fuzzer nothing.
func FuzzDecodeStripes(f *testing.F) { fuzzDecodeStripes(f) }

// FuzzDecodeStripesV2 replays the corpus committed under its name —
// testdata/fuzz is keyed by function name — through the same body; new
// fuzzing runs against FuzzDecodeStripes.
func FuzzDecodeStripesV2(f *testing.F) { fuzzDecodeStripes(f) }

func fuzzDecodeStripes(f *testing.F) {
	seed := listStripes()
	deep := []core.BrickStripe{{Brick: 0, Frags: func() []composite.Fragment {
		var frags []composite.Fragment
		for i := 0; i < 40; i++ {
			frags = append(frags, composite.Fragment{Key: int32(i % 3), A: 0.5, Depth: float32(i)})
		}
		return frags
	}()}}
	f.Add(encodeV2(seed))
	f.Add(encodeCF2(seed))
	f.Add(encodeV2(deep))
	f.Add(encodeCF2(deep))
	f.Add(encodeV2(nil))
	f.Add(encodeCF2(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 255, 127})
	// The plane test's two outcomes: random colours store their low
	// mantissa planes after the flate stream; a constant colour over as
	// many fragments keeps every plane packed.
	noisy := []core.BrickStripe{{Brick: 2, Frags: pinnedStripes(1)[0].Frags[:storedMinFrags]}}
	f.Add(encodeCF2(noisy))
	long := []core.BrickStripe{{Brick: 0, Frags: make([]composite.Fragment, storedMinFrags)}}
	for i := range long[0].Frags {
		long[0].Frags[i] = composite.Fragment{Key: int32(i / 4), R: 0.25, G: 0.5, A: 0.5, Depth: float32(i % 4)}
	}
	f.Add(encodeCF2(long))

	const maxBytes = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		if stripes, err := decodeCF2(data, maxBytes); err == nil {
			back, err := decodeCF2(encodeCF2(stripes), maxBytes)
			if err != nil {
				t.Fatalf("re-compressed cf2 payload failed to decode: %v", err)
			}
			if !stripesBitEqual(stripes, back) {
				t.Fatal("cf2 re-compression changed fragment bits")
			}
		}
	})
}

// FuzzDecodeCharges drives the HeaderUnitCharges decoder with arbitrary
// header values. Beyond not panicking, what it accepts re-encodes to a
// value that decodes to the same records (a fuzzer-found value may use
// non-minimal varints).
func FuzzDecodeCharges(f *testing.F) {
	ran := core.BrickCharges{
		Box: volume.Dims{X: 17, Y: 9, Z: 33}, Ran: true,
		Kernel:   gpu.Stats{Threads: 512, Samples: 9000, SamplesSkipped: 700, Cells: 1200, Emitted: 512 + 40 - 30, RaysHit: 30},
		Readback: 4*512 + composite.FragmentBytes*40,
		Frags:    []int64{25, 15}, Flushes: []int{1, 0},
	}
	off := core.BrickCharges{Box: volume.Dims{X: 8, Y: 8, Z: 8}}
	f.Add(encodeCharges(2, []core.UnitCharges{{Unit: 0, Bricks: []core.BrickCharges{ran}}, {Unit: 3, Bricks: []core.BrickCharges{off, ran}}}))
	f.Add(encodeCharges(1, []core.UnitCharges{{Unit: 5, Bricks: []core.BrickCharges{off}}}))
	f.Add(encodeCharges(4, nil))
	f.Add("")
	f.Add("!!!")
	f.Add("AQEAAQEBAQH/////////////AQ==")
	f.Fuzz(func(t *testing.T, value string) {
		units, err := decodeCharges(value)
		if err != nil {
			return
		}
		reducers := 1
		for _, u := range units {
			for _, b := range u.Bricks {
				if b.Ran {
					reducers = len(b.Frags)
				}
			}
		}
		back, err := decodeCharges(encodeCharges(reducers, units))
		if err != nil {
			t.Fatalf("re-encoded charges failed to decode: %v", err)
		}
		if !reflect.DeepEqual(back, units) {
			t.Fatalf("re-encoding changed the records: %+v != %+v", back, units)
		}
	})
}
