package dist

import (
	"testing"

	"gvmr/internal/composite"
	"gvmr/internal/core"
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
