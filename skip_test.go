// Empty-space-skipping contract tests: the macrocell DDA must be a pure
// accelerator. For every dataset, transfer function and shading mode, the
// image rendered with skipping enabled is bit-identical to the dense
// march, the skipped samples are exactly the dense samples it avoided
// (conservation), and on the presets it actually skips something.
package gvmr_test

import (
	"testing"

	"gvmr"
	"gvmr/internal/transfer"
)

// skipStats sums the sampling counters over a frame's workers.
func skipStats(res *gvmr.Result) (samples, skipped, cells int64) {
	return res.Stats.TotalSamples, res.Stats.TotalSamplesSkipped, res.Stats.TotalCells
}

func TestEmptySkipBitIdentityProperty(t *testing.T) {
	datasets := []string{"skull", "supernova", "plume"}
	tfs := []struct {
		name string
		fn   func(ds string) (*transfer.Func, error)
	}{
		{"preset", gvmr.Preset},
		{"gray", func(string) (*transfer.Func, error) { return transfer.Gray(), nil }},
	}
	for _, ds := range datasets {
		src, err := gvmr.Dataset(ds, 32)
		if err != nil {
			t.Fatal(err)
		}
		for _, tf := range tfs {
			fn, err := tf.fn(ds)
			if err != nil {
				t.Fatal(err)
			}
			for _, shading := range []bool{false, true} {
				name := ds + "/" + tf.name
				if shading {
					name += "/shaded"
				}
				t.Run(name, func(t *testing.T) {
					render := func(noskip bool) *gvmr.Result {
						cl, err := gvmr.NewCluster(2)
						if err != nil {
							t.Fatal(err)
						}
						res, err := gvmr.Render(cl, gvmr.Options{
							Source: src, TF: fn, Width: 64, Height: 64,
							Shading: shading, NoEmptySkip: noskip,
						})
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					on := render(false)
					off := render(true)
					if on.Image.Digest() != off.Image.Digest() {
						t.Fatal("skip-on image differs from skip-off — conservativeness bug")
					}
					sOn, skOn, cOn := skipStats(on)
					sOff, skOff, cOff := skipStats(off)
					if skOff != 0 || cOff != 0 {
						t.Errorf("NoEmptySkip still traversed macrocells: skipped=%d cells=%d", skOff, cOff)
					}
					// Conservation: every skipped sample is one the dense
					// path took, and nothing else changed.
					if sOn+skOn != sOff {
						t.Errorf("sample conservation broken: on %d + skipped %d != off %d",
							sOn, skOn, sOff)
					}
					// The presets leave real empty space in all three
					// datasets; the skip structure must find some of it.
					if tf.name == "preset" && skOn == 0 {
						t.Errorf("no samples skipped under the %s preset", ds)
					}
					if skOn > 0 && cOn == 0 {
						t.Error("samples skipped without charging macrocell traversal")
					}
				})
			}
		}
	}
}

// TestEmptySkipSequenceIdentity renders a short orbit with skipping on
// and off through the public sequence API: every frame digest must
// match, and the aggregated stats must show the skip-on run doing
// strictly less sampling work, in no more virtual time, for the same
// images.
func TestEmptySkipSequenceIdentity(t *testing.T) {
	render := func(noskip bool) []*gvmr.Result {
		cl, err := gvmr.NewCluster(2)
		if err != nil {
			t.Fatal(err)
		}
		src, err := gvmr.Dataset("skull", 24)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := gvmr.Preset("skull")
		if err != nil {
			t.Fatal(err)
		}
		cams, err := gvmr.OrbitCameras(src, 48, 48, 3, 360)
		if err != nil {
			t.Fatal(err)
		}
		res, err := gvmr.RenderFrames(cl, gvmr.Options{
			Source: src, TF: tf, Width: 48, Height: 48,
			Shading: true, NoEmptySkip: noskip,
		}, cams)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on := render(false)
	off := render(true)
	if len(on) != len(off) {
		t.Fatalf("frame counts differ: %d vs %d", len(on), len(off))
	}
	var totalSkipped int64
	var runtimeOn, runtimeOff gvmr.Time
	for i := range on {
		if on[i].Image.Digest() != off[i].Image.Digest() {
			t.Errorf("frame %d: digests differ between skip on/off", i)
		}
		sOn, skOn, _ := skipStats(on[i])
		sOff, _, _ := skipStats(off[i])
		if sOn+skOn != sOff {
			t.Errorf("frame %d: conservation broken (%d+%d != %d)", i, sOn, skOn, sOff)
		}
		totalSkipped += skOn
		runtimeOn += on[i].Runtime
		runtimeOff += off[i].Runtime
	}
	if totalSkipped == 0 {
		t.Error("orbit skipped nothing on the skull preset")
	}
	// Skipping must not cost virtual time on this orbit. Not a property of
	// every scene: at 24³ the plume's cell charges outweigh its savings.
	if runtimeOn > runtimeOff {
		t.Errorf("skip-on orbit virtual time %v > skip-off %v — acceleration regression", runtimeOn, runtimeOff)
	}
}
