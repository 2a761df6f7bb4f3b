package gvmr_test

import (
	"path/filepath"
	"runtime"
	"testing"

	"gvmr"
	"gvmr/internal/transfer"
)

// TestPublicAPIRoundTrip exercises the whole facade the way the README's
// quickstart does.
func TestPublicAPIRoundTrip(t *testing.T) {
	cl, err := gvmr.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	src, err := gvmr.Dataset("skull", 32)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := gvmr.Preset("skull")
	if err != nil {
		t.Fatal(err)
	}
	res, err := gvmr.Render(cl, gvmr.Options{
		Source: src, TF: tf, Width: 64, Height: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.MeanLuminance() <= 0 {
		t.Error("black image")
	}
	if res.FPS <= 0 || res.Runtime <= 0 {
		t.Error("missing figures of merit")
	}
	out := filepath.Join(t.TempDir(), "x.png")
	if err := res.Image.WritePNG(out); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIDatasets(t *testing.T) {
	names := gvmr.DatasetNames()
	if len(names) != 3 {
		t.Fatalf("datasets = %v", names)
	}
	for _, n := range names {
		src, err := gvmr.Dataset(n, 16)
		if err != nil {
			t.Fatal(err)
		}
		if src.Dims().Voxels() == 0 {
			t.Errorf("%s empty dims", n)
		}
		if _, err := gvmr.Preset(n); err != nil {
			t.Errorf("no preset for %s: %v", n, err)
		}
	}
	// Plume keeps the paper's aspect.
	plume, err := gvmr.Dataset("plume", 64)
	if err != nil {
		t.Fatal(err)
	}
	d := plume.Dims()
	if d.Z != 4*d.X {
		t.Errorf("plume dims %v should be 1:1:4", d)
	}
}

func TestPublicAPIVolumeFile(t *testing.T) {
	src, err := gvmr.Dataset("supernova", 16)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v.gvmr")
	if err := gvmr.WriteVolumeFile(path, src); err != nil {
		t.Fatal(err)
	}
	file, err := gvmr.OpenVolumeFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if file.Dims() != src.Dims() {
		t.Errorf("file dims %v != %v", file.Dims(), src.Dims())
	}
}

func TestPublicAPICustomCamera(t *testing.T) {
	src, err := gvmr.Dataset("skull", 32)
	if err != nil {
		t.Fatal(err)
	}
	cam, err := gvmr.NewCamera(gvmr.V3(0, 0, 2), gvmr.V3(0, 0, 0), gvmr.V3(0, 1, 0),
		0.8, 48, 48)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := gvmr.Preset("skull")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := gvmr.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := gvmr.Render(cl, gvmr.Options{
		Source: src, TF: tf, Width: 48, Height: 48, Camera: cam,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Image.MeanLuminance() <= 0 {
		t.Error("black image from custom camera")
	}
}

func TestPublicAPICustomTransfer(t *testing.T) {
	tf, err := gvmr.TransferFromPoints([]transfer.Point{
		{S: 0, C: gvmr.RGBA(0, 0, 0, 0)},
		{S: 1, C: gvmr.RGBA(1, 0, 0, 1)},
	}, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c := tf.Lookup(1); c.X != 1 {
		t.Errorf("custom TF lookup = %v", c)
	}
}

// withProcs sets GOMAXPROCS — the frame pool's width — to n for the rest
// of the test. Values above the core count force a real pool on any
// machine.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestPublicAPIRenderFrames exercises the parallel frame APIs the way an
// animation consumer would: build an orbit path, render it synchronously
// one frame at a time and as a stream on a real pool, and check the two
// agree frame for frame.
func TestPublicAPIRenderFrames(t *testing.T) {
	src, err := gvmr.Dataset("skull", 24)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := gvmr.Preset("skull")
	if err != nil {
		t.Fatal(err)
	}
	withProcs(t, 1)
	opt := gvmr.Options{Source: src, TF: tf, Width: 48, Height: 48}
	cams, err := gvmr.OrbitCameras(src, 48, 48, 3, 120)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := gvmr.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	results, err := gvmr.RenderFrames(cl, opt, cams)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d frames", len(results))
	}
	for i, r := range results {
		if r.Image.MeanLuminance() <= 0 {
			t.Errorf("frame %d black", i)
		}
	}
	if cl.Env.Now() <= 0 {
		t.Error("session clock did not advance")
	}

	runtime.GOMAXPROCS(4) // a real pool even on one core
	cl2, err := gvmr.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	stream, stop, err := gvmr.RenderAsync(cl2, opt, cams)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	i := 0
	for fr := range stream {
		if fr.Err != nil {
			t.Fatalf("frame %d: %v", fr.Index, fr.Err)
		}
		if fr.Index != i {
			t.Fatalf("frame %d delivered at position %d", fr.Index, i)
		}
		if fr.Result.Image.Digest() != results[i].Image.Digest() {
			t.Errorf("stream frame %d differs from synchronous frame", i)
		}
		i++
	}
	if i != 3 {
		t.Fatalf("stream delivered %d of 3 frames", i)
	}
}
