// Golden-image regression tests: every built-in preset renders to a
// committed SHA-256 digest of its exact float32 framebuffer, so any
// change to the kernels, compositing, partitioning or scheduling that
// moves a single bit of a single pixel fails loudly.
//
// The digests in testdata/golden.json are produced by the renderer
// itself; regenerate after an intentional image change with
//
//	GVMR_UPDATE_GOLDEN=1 go test -run TestGoldenImages .
//
// and review the diff. The renderer is pure Go IEEE-754 float math, and
// the Go compiler fuses no multiply-adds on amd64, so there the digests
// are stable across runs, pool widths and serial/parallel modes — that
// stability is itself asserted here. The committed digests hold on amd64
// only: arm64, ppc64le, s390x and riscv64 builds fuse multiply-adds in
// the render and composite packages, which round differently.
package gvmr_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gvmr"
	"gvmr/internal/mapreduce"
)

// goldenConfigs are the committed render configurations: the paper's two
// headline datasets plus the procedural plume field, at small dims so the
// suite stays fast.
var goldenConfigs = []struct {
	name    string
	dataset string
	edge    int
	gpus    int
	size    int
	shading bool
}{
	{"skull_32_shaded", "skull", 32, 2, 64, true},
	{"supernova_32", "supernova", 32, 2, 64, false},
	{"plume_32_procedural", "plume", 32, 2, 64, false},
}

// goldenOrbitAngles are the committed orbit-camera goldens: the same
// skull configuration viewed at fixed angles along the fitted orbit —
// the views the render service addresses with ?orbit=A, so the CI
// cluster smoke can diff served digests straight against this file.
var goldenOrbitAngles = []float64{0, 60, 120, 180, 240, 300}

func goldenOrbitName(angle float64) string {
	return fmt.Sprintf("skull_32_shaded_orbit%03.0f", angle)
}

// The adversarial non-convex goldens: the shaded skull re-bricked to 16
// bricks (2 GPUs × 8 bricks/GPU) and interleaved into 2 checkerboard
// units, so rays re-enter each unit several times and every (unit,
// pixel) compositing cell really carries a fragment *list* (DESIGN.md
// §12; the re-entry premise is pinned by core's TestInterleavedRayReentry).
// The orbit angles are the frames the CI cluster smoke requests with
// ?partition=interleave:2&bricks-per-gpu=8.
var goldenPartitionOrbitAngles = []float64{0, 120, 240}

const goldenPartitionBase = "skull_32_interleave2"

func goldenPartitionName(angle float64) string {
	return fmt.Sprintf("%s_orbit%03.0f", goldenPartitionBase, angle)
}

func adversarialPartition(o *gvmr.Options) {
	o.BricksPerGPU = 8
	o.Partition = gvmr.Interleaved{NumParts: 2}
}

func renderGoldenWith(t *testing.T, i int, part mapreduce.Partitioner, orbit *float64, mut func(*gvmr.Options)) *gvmr.Result {
	t.Helper()
	c := goldenConfigs[i]
	cl, err := gvmr.NewCluster(c.gpus)
	if err != nil {
		t.Fatal(err)
	}
	src, err := gvmr.Dataset(c.dataset, c.edge)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := gvmr.Preset(c.dataset)
	if err != nil {
		t.Fatal(err)
	}
	opt := gvmr.Options{
		Source: src, TF: tf, Width: c.size, Height: c.size,
		GPUs: c.gpus, Shading: c.shading,
		Partitioner: part,
	}
	if orbit != nil {
		opt.Camera, err = gvmr.OrbitCamera(src, c.size, c.size, *orbit)
		if err != nil {
			t.Fatal(err)
		}
	}
	if mut != nil {
		mut(&opt)
	}
	res, err := gvmr.Render(cl, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func renderGolden(t *testing.T, i int) *gvmr.Result {
	return renderGoldenWith(t, i, nil, nil, nil)
}

const goldenPath = "testdata/golden.json"

func TestGoldenImages(t *testing.T) {
	got := map[string]string{}
	for i, c := range goldenConfigs {
		res := renderGolden(t, i)
		if res.Image.MeanLuminance() <= 0 {
			t.Fatalf("%s: black image", c.name)
		}
		got[c.name] = res.Image.Digest()
		// Cross-run determinism, independent of the committed file: the
		// same configuration must reproduce the same bits.
		if again := renderGolden(t, i); again.Image.Digest() != got[c.name] {
			t.Errorf("%s: digest changed between two renders in one process", c.name)
		}
	}
	for _, angle := range goldenOrbitAngles {
		angle := angle
		res := renderGoldenWith(t, 0, nil, &angle, nil) // config 0 is the shaded skull
		if res.Image.MeanLuminance() <= 0 {
			t.Fatalf("%s: black image", goldenOrbitName(angle))
		}
		got[goldenOrbitName(angle)] = res.Image.Digest()
	}

	// Adversarial non-convex partition goldens. Each frame is rendered
	// with the interleaved partition AND with the same bricking convex
	// (partition unset): §12 says the partition must not move a bit, so
	// the committed digest is simultaneously the convex 16-brick digest.
	{
		res := renderGoldenWith(t, 0, nil, nil, adversarialPartition)
		if res.Image.MeanLuminance() <= 0 {
			t.Fatalf("%s: black image", goldenPartitionBase)
		}
		got[goldenPartitionBase] = res.Image.Digest()
		convex := renderGoldenWith(t, 0, nil, nil, func(o *gvmr.Options) { o.BricksPerGPU = 8 })
		if convex.Image.Digest() != got[goldenPartitionBase] {
			t.Errorf("%s: interleaved digest %s != convex 16-brick digest %s",
				goldenPartitionBase, got[goldenPartitionBase], convex.Image.Digest())
		}
	}
	for _, angle := range goldenPartitionOrbitAngles {
		angle := angle
		res := renderGoldenWith(t, 0, nil, &angle, adversarialPartition)
		if res.Image.MeanLuminance() <= 0 {
			t.Fatalf("%s: black image", goldenPartitionName(angle))
		}
		got[goldenPartitionName(angle)] = res.Image.Digest()
	}

	if os.Getenv("GVMR_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s (regenerate with GVMR_UPDATE_GOLDEN=1): %v", goldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, digest := range got {
		if want[name] == "" {
			t.Errorf("%s: no committed digest (regenerate with GVMR_UPDATE_GOLDEN=1)", name)
		} else if want[name] != digest {
			t.Errorf("%s: image digest %s != committed %s — the rendered bits changed; "+
				"if intentional, regenerate with GVMR_UPDATE_GOLDEN=1 and review",
				name, digest, want[name])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("committed digest %q has no matching config", name)
		}
	}
}

// TestGoldenPartitionerInvariance locks the compositing-invariance claim
// from partition.go into the golden suite: the partitioner only routes
// pixels to reducers, so round-robin (the committed default), striped and
// checkerboard partitionings must reproduce the committed digest exactly,
// for every testdata dataset. Per-pixel compositing sorts fragments by
// depth before folding, so which reducer owns a pixel — and in what order
// batches arrive there — cannot move a bit.
func TestGoldenPartitionerInvariance(t *testing.T) {
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s: %v", goldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for i, c := range goldenConfigs {
		partitioners := map[string]mapreduce.Partitioner{
			"roundrobin":   mapreduce.RoundRobin{},
			"striped":      mapreduce.Striped{Width: c.size, StripeHeight: 8},
			"checkerboard": mapreduce.Checkerboard{Width: c.size, Tile: 16},
		}
		for pname, part := range partitioners {
			res := renderGoldenWith(t, i, part, nil, nil)
			if got := res.Image.Digest(); got != want[c.name] {
				t.Errorf("%s with %s partitioning: digest %s != committed %s",
					c.name, pname, got, want[c.name])
			}
		}
	}
}

// TestGoldenSequenceSerialVsParallel locks the scheduler contract down at
// the public API: an orbit rendered back to back (a trace selects that)
// and through the parallel frame scheduler produces bit-identical images
// and per-frame virtual times.
func TestGoldenSequenceSerialVsParallel(t *testing.T) {
	withProcs(t, 4) // a real pool even on one core
	render := func(serial bool) *gvmr.SequenceResult {
		t.Helper()
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
		opt := gvmr.Options{Source: src, TF: tf, Width: 48, Height: 48}
		if serial {
			opt.Trace = gvmr.NewTraceLog()
		}
		seq, err := gvmr.RenderSequence(cl, opt, 4, 360)
		if err != nil {
			t.Fatal(err)
		}
		return seq
	}
	serial := render(true)
	parallel := render(false)
	if serial.Workers != 1 || parallel.Workers != 4 {
		t.Fatalf("pool widths = %d serial / %d parallel, want 1 / 4", serial.Workers, parallel.Workers)
	}
	if serial.LastImage.Digest() != parallel.LastImage.Digest() {
		t.Error("serial and parallel sequence images differ")
	}
	if !reflect.DeepEqual(serial.PerFrame, parallel.PerFrame) {
		t.Errorf("per-frame times differ:\nserial   %v\nparallel %v",
			serial.PerFrame, parallel.PerFrame)
	}
	if serial.Total != parallel.Total || serial.Agg != parallel.Agg {
		t.Error("sequence accounting differs between serial and parallel modes")
	}
}
