package core

import (
	"fmt"
	"sync/atomic"
	"testing"

	"gvmr/internal/transfer"
	"gvmr/internal/volume"
)

// tagSeq makes every test source's cache identity unique, so repeated
// runs in one process (go test -count=N) never hit a stale entry in the
// process-wide staging cache.
var tagSeq atomic.Int64

// fillCounter wraps a FuncSource and counts how many times the underlying
// field is actually evaluated (Fill calls reaching the source).
type fillCounter struct {
	*volume.FuncSource
	fills atomic.Int64
}

func (s *fillCounter) Fill(r volume.Region, dst []float32) error {
	s.fills.Add(1)
	return s.FuncSource.Fill(r, dst)
}

func countedOptions(t *testing.T, tag string, n, imgSize, gpus int) (Options, *fillCounter) {
	t.Helper()
	tag = fmt.Sprintf("%s-%d", tag, tagSeq.Add(1))
	src := &fillCounter{FuncSource: volume.NewFuncSourceRows(tag, volume.Cube(n),
		func(dst []float32, xs []float64, y, z float64) {
			for i, x := range xs {
				dst[i] = float32((x + y + z) / 3)
			}
		})}
	return Options{
		Source: src,
		TF:     transfer.SkullPreset(),
		Width:  imgSize,
		Height: imgSize,
		GPUs:   gpus,
	}, src
}

// TestRenderSequenceMaterialisesSourceOnce is the staging-cache contract
// for animation: across all frames (and all bricks of each frame) the
// analytic source is evaluated exactly once; every later stage is served
// from the cached dense volume.
func TestRenderSequenceMaterialisesSourceOnce(t *testing.T) {
	cl := newCluster(t, 4)
	opt, counter := countedOptions(t, "seq-materialise-once", 32, 40, 4)
	seq, err := RenderSequence(cl, opt, 3, 90)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Frames != 3 {
		t.Fatalf("frames = %d", seq.Frames)
	}
	if n := counter.fills.Load(); n != 1 {
		t.Errorf("source filled %d times across 3 frames, want exactly 1", n)
	}
}

// TestRenderCachesAcrossConfigurations checks the cross-configuration
// reuse a scaling sweep depends on: rendering the same source identity on
// fresh clusters with different GPU counts still materialises once.
func TestRenderCachesAcrossConfigurations(t *testing.T) {
	opt, counter := countedOptions(t, "sweep-materialise-once", 32, 40, 0)
	for _, gpus := range []int{1, 2, 4} {
		cl := newCluster(t, gpus)
		o := opt
		o.GPUs = gpus
		if _, err := Render(cl, o); err != nil {
			t.Fatal(err)
		}
	}
	if n := counter.fills.Load(); n != 1 {
		t.Errorf("source filled %d times across 3 cluster sizes, want exactly 1", n)
	}
}

// TestRenderNoStagingCacheOptOut verifies the opt-out: a source that does
// not declare volume.Stageable is never cached, so every brick stage
// evaluates it directly, and the image matches the cached render exactly.
func TestRenderNoStagingCacheOptOut(t *testing.T) {
	optA, counterA := countedOptions(t, "optout-a", 32, 40, 4)
	// Embedding the interface hides the counter's StageCacheable.
	optA.Source = struct{ volume.Source }{counterA}
	clA := newCluster(t, 4)
	resA, err := Render(clA, optA)
	if err != nil {
		t.Fatal(err)
	}
	if n := counterA.fills.Load(); n < 2 {
		t.Errorf("opt-out render filled source %d times; want one per brick (>1)", n)
	}
	optB, _ := countedOptions(t, "optout-b", 32, 40, 4)
	clB := newCluster(t, 4)
	resB, err := Render(clB, optB)
	if err != nil {
		t.Fatal(err)
	}
	if len(resA.Image.Pix) != len(resB.Image.Pix) {
		t.Fatal("image size mismatch")
	}
	for i := range resA.Image.Pix {
		if resA.Image.Pix[i] != resB.Image.Pix[i] {
			t.Fatalf("pixel %d differs between cached and uncached render", i)
		}
	}
}
