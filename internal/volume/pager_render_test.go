package volume_test

import (
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"gvmr/internal/cluster"
	"gvmr/internal/core"
	"gvmr/internal/transfer"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// countingPlanner decorates the pager the way the benchmark does — by
// embedding it — and counts the plans core hands it.
type countingPlanner struct {
	*volume.PagedSource
	plans atomic.Int64
}

func (c *countingPlanner) PlanFrame(ghosts []volume.Region) func() {
	c.plans.Add(1)
	return c.PagedSource.PlanFrame(ghosts)
}

// opaque shows core a bare Source: no planner, no kept macrocells, no
// directory ranges.
type opaque struct{ inner volume.Source }

func (o opaque) Name() string                              { return o.inner.Name() }
func (o opaque) Dims() volume.Dims                         { return o.inner.Dims() }
func (o opaque) Fill(r volume.Region, dst []float32) error { return o.inner.Fill(r, dst) }

// failingFill embeds the pager, so core plans the frame, and fails the
// job's third Fill.
type failingFill struct {
	*volume.PagedSource
	fills atomic.Int64
}

var errInjected = errors.New("injected fill failure")

func (f *failingFill) Fill(r volume.Region, dst []float32) error {
	if f.fills.Add(1) == 3 {
		return errInjected
	}
	return f.PagedSource.Fill(r, dst)
}

// TestPagedRenderSameDigestHoweverPlanned renders the skull from a v2
// file through a staging cache a few pages large and compares the image
// digest with the in-RAM render's: with the frame planner reached through
// an embedding decorator, hidden behind a wrapper that exposes only
// Source, under two concurrent jobs on one pager, and after a job that
// failed half way. The plan is a hint — the digest never moves — and the
// planned counts are back at zero whenever no job is running.
func TestPagedRenderSameDigestHoweverPlanned(t *testing.T) {
	src, err := dataset.New(dataset.Skull, volume.Cube(32))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.Options{
		Source: src, TF: transfer.SkullPreset(),
		Width: 64, Height: 64,
		GPUs: 2, BricksPerGPU: 4, Shading: true,
	}
	spec := cluster.AC(2)
	render := func(s volume.Source) (string, error) {
		o := opt
		o.Source = s
		res, _, err := core.RenderOn(spec, o, 0)
		if err != nil {
			return "", err
		}
		return res.Image.Digest(), nil
	}
	want, err := render(src)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "skull.gvmr")
	if err := volume.WriteFileV2(path, src, volume.V2Options{BrickEdge: 8, Compress: true}); err != nil {
		t.Fatal(err)
	}
	ps, err := volume.OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	cache := volume.NewStagingCache(12 * volume.Cube(8).Bytes())
	ps.SetCache(cache)
	atRest := func(when string) {
		t.Helper()
		if uses, plans := volume.PlannedUses(ps); uses != 0 || plans != 0 {
			t.Fatalf("%s: %d planned uses and %d plans outstanding", when, uses, plans)
		}
	}

	planner := &countingPlanner{PagedSource: ps}
	for frame := 0; frame < 2; frame++ {
		if got, err := render(planner); err != nil || got != want {
			t.Fatalf("planned frame %d: digest %s, %v; want %s", frame, got, err, want)
		}
	}
	if n := planner.plans.Load(); n != 2 {
		t.Errorf("core planned %d frames through the embedding decorator, want 2", n)
	}
	atRest("after planned frames")
	st := ps.Stats()
	if st.ConstantFills == 0 || st.Reloads == 0 || cache.Stats().Evictions == 0 {
		t.Errorf("pager %+v, cache %+v: want constant fills, reloads and evictions", st, cache.Stats())
	}

	if got, err := render(opaque{ps}); err != nil || got != want {
		t.Fatalf("hidden planner: digest %s, %v; want %s", got, err, want)
	}
	if n := planner.plans.Load(); n != 2 {
		t.Errorf("the opaque wrapper leaked the planner: %d plans", n)
	}

	var wg sync.WaitGroup
	for job := 0; job < 2; job++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for frame := 0; frame < 3; frame++ {
				if got, err := render(planner); err != nil || got != want {
					t.Errorf("concurrent job %d frame %d: digest %s, %v; want %s", job, frame, got, err, want)
				}
			}
		}()
	}
	wg.Wait()
	atRest("after concurrent jobs")

	if _, err := render(&failingFill{PagedSource: ps}); !errors.Is(err, errInjected) {
		t.Fatalf("failing job: got %v, want the injected error", err)
	}
	atRest("after a failed job")
	if got, err := render(planner); err != nil || got != want {
		t.Fatalf("frame after a failed job: digest %s, %v; want %s", got, err, want)
	}
}

// TestPagedRenderSurvivesFileSwap rewrites the file under an open pager
// mid-orbit with another dataset of the same dims, raw, so the new dense
// payloads could sit where the old ones did. Every frame the open pager
// renders — through a cache too small to keep what it read — is the
// first volume's, and a fresh open renders the second's.
func TestPagedRenderSurvivesFileSwap(t *testing.T) {
	first, err := dataset.New(dataset.Skull, volume.Cube(32))
	if err != nil {
		t.Fatal(err)
	}
	second, err := dataset.New(dataset.Supernova, volume.Cube(32))
	if err != nil {
		t.Fatal(err)
	}
	render := func(s volume.Source, deg float64) string {
		t.Helper()
		cam, err := core.OrbitCamera(s, 48, 48, deg)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := core.RenderOn(cluster.AC(2), core.Options{
			Source: s, TF: transfer.SkullPreset(), Camera: cam,
			Width: 48, Height: 48, GPUs: 2, BricksPerGPU: 4,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Image.Digest()
	}
	path := filepath.Join(t.TempDir(), "swap.gvmr")
	opts := volume.V2Options{BrickEdge: 8}
	if err := volume.WriteFileV2(path, first, opts); err != nil {
		t.Fatal(err)
	}
	ps, err := volume.OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.SetCache(volume.NewStagingCache(2 * volume.Cube(8).Bytes()))
	for frame, deg := range []float64{0, 60, 120, 180} {
		if frame == 1 {
			if err := volume.WriteFileV2(path, second, opts); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := render(ps, deg), render(first, deg); got != want {
			t.Errorf("frame %d at %v°: digest %s, want the first volume's %s", frame, deg, got, want)
		}
	}
	fresh, err := volume.OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if got, want := render(fresh, 0), render(second, 0); got != want {
		t.Errorf("fresh open: digest %s, want the second volume's %s", got, want)
	}
}

// TestPagedRendersShareGhostBuffers renders two v2 files of one size —
// skull and supernova — alternately in one process: each file's
// copy-backed bricks are staged into ghost buffers the other's frame
// released, unzeroed. Every frame matches its own volume's in-RAM render,
// so a voxel left over from the other file fails the test.
func TestPagedRendersShareGhostBuffers(t *testing.T) {
	var srcs, paged []volume.Source
	for _, name := range []string{dataset.Skull, dataset.Supernova} {
		src, err := dataset.New(name, volume.Cube(32))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name+".gvmr")
		if err := volume.WriteFileV2(path, src, volume.V2Options{BrickEdge: 8, Compress: true}); err != nil {
			t.Fatal(err)
		}
		ps, err := volume.OpenFileV2(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ps.Close()
		ps.SetCache(volume.NewStagingCache(8 * volume.Cube(8).Bytes()))
		srcs, paged = append(srcs, src), append(paged, ps)
	}
	render := func(s volume.Source, deg float64) string {
		t.Helper()
		cam, err := core.OrbitCamera(s, 48, 48, deg)
		if err != nil {
			t.Fatal(err)
		}
		res, _, err := core.RenderOn(cluster.AC(2), core.Options{
			Source: s, TF: transfer.SkullPreset(), Camera: cam,
			Width: 48, Height: 48, GPUs: 2, BricksPerGPU: 4, Shading: true,
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Image.Digest()
	}
	for frame, deg := range []float64{0, 0, 40, 80} {
		for i := range paged {
			if got, want := render(paged[i], deg), render(srcs[i], deg); got != want {
				t.Errorf("frame %d, %s: digest %s, want the in-RAM render's %s", frame, srcs[i].Name(), got, want)
			}
		}
	}
	if volume.FreeGhostBytes() == 0 {
		t.Error("no ghost buffer came back to the free list: nothing was reused")
	}
}

// TestSkullFileReadsDenseBricksOnly writes the orbit-paged benchmark's
// file — skull 144³ in 512 bricks of 18³ — raw. The writer records its
// 245 one-value bricks in the directory, so the file holds the 267 dense
// cores alone (6 240 912 bytes, not 11 956 272), and a fresh pager's
// first whole-volume Fill reads exactly those 267.
func TestSkullFileReadsDenseBricksOnly(t *testing.T) {
	src, err := dataset.New(dataset.Skull, volume.Cube(144))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "skull144.gvmr")
	if err := volume.WriteFileV2(path, volume.Cached(src), volume.V2Options{BrickEdge: 18}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 6240912 {
		t.Errorf("file is %d bytes, want 6240912", fi.Size())
	}
	ps, err := volume.OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.SetCache(nil)
	whole := volume.Region{Ext: ps.Dims()}
	if err := ps.Fill(whole, make([]float32, whole.Ext.Voxels())); err != nil {
		t.Fatal(err)
	}
	if st := ps.Stats(); st.Bricks != 512 || st.BrickReads != 267 || st.ConstantFills != 245 {
		t.Errorf("whole fill of a fresh pager: %+v, want 267 of 512 bricks read and 245 constant fills", st)
	}
}
