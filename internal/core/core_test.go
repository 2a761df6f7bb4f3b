package core

import (
	"path/filepath"
	"testing"

	"gvmr/internal/camera"
	"gvmr/internal/cluster"
	"gvmr/internal/img"
	"gvmr/internal/mapreduce"
	"gvmr/internal/render"
	"gvmr/internal/sim"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

func newCluster(t *testing.T, gpus int) *cluster.Cluster {
	t.Helper()
	env := sim.NewEnv()
	cl, err := cluster.New(env, cluster.AC(gpus))
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func skullOptions(t *testing.T, n, imgSize, gpus int) Options {
	t.Helper()
	src, err := dataset.New(dataset.Skull, volume.Cube(n))
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Source: src,
		TF:     transfer.SkullPreset(),
		Width:  imgSize,
		Height: imgSize,
		GPUs:   gpus,
	}
}

func referenceImage(t *testing.T, opt Options) *img.Image {
	t.Helper()
	sp := volume.NewSpace(opt.Source.Dims())
	cam := opt.Camera
	if cam == nil {
		var err error
		cam, err = camera.Fit(sp.Bounds(), opt.Width, opt.Height)
		if err != nil {
			t.Fatal(err)
		}
	}
	pix, err := render.Reference(cam, opt.Source, render.Params{
		TF: opt.TF, StepVoxels: 1, TerminationAlpha: 0.98,
	}, vec.V4{X: 0, Y: 0, Z: 0, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	im := img.New(opt.Width, opt.Height, vec.V4{})
	copy(im.Pix, pix)
	return im
}

func TestRenderMatchesReference(t *testing.T) {
	cl := newCluster(t, 4)
	opt := skullOptions(t, 32, 48, 4)
	res, err := Render(cl, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceImage(t, opt)
	maxErr, meanErr := img.Diff(res.Image, ref)
	if maxErr > 0.05 || meanErr > 0.002 {
		t.Errorf("distributed render differs from reference: max %.4f mean %.5f", maxErr, meanErr)
	}
	if res.Image.MeanLuminance() < 0.01 {
		t.Error("image is black")
	}
}

func TestGPUCountImageInvariance(t *testing.T) {
	base := skullOptions(t, 32, 40, 1)
	resBase, err := Render(newCluster(t, 1), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, gpus := range []int{2, 4, 8} {
		opt := skullOptions(t, 32, 40, gpus)
		res, err := Render(newCluster(t, gpus), opt)
		if err != nil {
			t.Fatalf("%d GPUs: %v", gpus, err)
		}
		maxErr, _ := img.Diff(res.Image, resBase.Image)
		if maxErr > 0.05 {
			t.Errorf("%d GPUs: image differs from 1-GPU image by %.4f", gpus, maxErr)
		}
		if res.Grid.NumBricks() < gpus {
			t.Errorf("%d GPUs: only %d bricks", gpus, res.Grid.NumBricks())
		}
	}
}

func TestBinarySwapMatchesDirectSend(t *testing.T) {
	optDS := skullOptions(t, 32, 40, 4)
	resDS, err := Render(newCluster(t, 4), optDS)
	if err != nil {
		t.Fatal(err)
	}
	optBS := skullOptions(t, 32, 40, 4)
	optBS.Compositor = BinarySwap
	resBS, err := Render(newCluster(t, 4), optBS)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, _ := img.Diff(resDS.Image, resBS.Image)
	if maxErr > 1e-4 {
		t.Errorf("binary swap image differs from direct send by %.5f", maxErr)
	}
	if resBS.SwapTime <= 0 {
		t.Error("binary swap charged no exchange time")
	}
}

func TestBinarySwapRequiresPowerOfTwo(t *testing.T) {
	opt := skullOptions(t, 32, 40, 3)
	opt.Compositor = BinarySwap
	if _, err := Render(newCluster(t, 3), opt); err == nil {
		t.Error("binary swap on 3 GPUs accepted")
	}
}

func TestSlicingSamplerRendersComparableImage(t *testing.T) {
	optRC := skullOptions(t, 32, 40, 4)
	resRC, err := Render(newCluster(t, 4), optRC)
	if err != nil {
		t.Fatal(err)
	}
	optSL := skullOptions(t, 32, 40, 4)
	optSL.Sampler = Slicing
	resSL, err := Render(newCluster(t, 4), optSL)
	if err != nil {
		t.Fatal(err)
	}
	lumRC := resRC.Image.MeanLuminance()
	lumSL := resSL.Image.MeanLuminance()
	if lumSL < lumRC*0.7 || lumSL > lumRC*1.3 {
		t.Errorf("slicing luminance %.4f too far from ray casting %.4f", lumSL, lumRC)
	}
}

func TestOutOfCoreMatchesInCore(t *testing.T) {
	// Write the dataset to a file, render from disk, compare to in-core.
	src, err := dataset.New(dataset.Supernova, volume.Cube(24))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sn.gvmr")
	if err := volume.WriteFileV2(path, src, volume.V2Options{BrickEdge: 8}); err != nil {
		t.Fatal(err)
	}
	fileSrc, err := volume.OpenFileV2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fileSrc.Close()

	inCore := Options{
		Source: src, TF: transfer.SupernovaPreset(),
		Width: 32, Height: 32, GPUs: 2,
	}
	resIC, err := Render(newCluster(t, 2), inCore)
	if err != nil {
		t.Fatal(err)
	}
	outCore := Options{
		Source: fileSrc, TF: transfer.SupernovaPreset(),
		Width: 32, Height: 32, GPUs: 2, FromDisk: true,
	}
	resOOC, err := Render(newCluster(t, 2), outCore)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, _ := img.Diff(resIC.Image, resOOC.Image)
	if maxErr > 1e-6 {
		t.Errorf("out-of-core image differs by %.6f", maxErr)
	}
	if resOOC.Runtime <= resIC.Runtime {
		t.Errorf("out-of-core %v should be slower than in-core %v", resOOC.Runtime, resIC.Runtime)
	}
}

func TestResultFiguresOfMerit(t *testing.T) {
	cl := newCluster(t, 4)
	res, err := Render(cl, skullOptions(t, 32, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 {
		t.Fatal("no runtime")
	}
	if res.FPS <= 0 || res.VPSMillions <= 0 {
		t.Error("FPS/VPS not computed")
	}
	wantVPS := float64(res.Voxels) / res.Runtime.Seconds() / 1e6
	if diff := res.VPSMillions - wantVPS; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("VPS inconsistent: %v vs %v", res.VPSMillions, wantVPS)
	}
	if res.Stats.MeanStage.Map <= 0 {
		t.Error("no map time recorded")
	}
	if res.Stats.TotalEmitted == 0 {
		t.Error("no fragments emitted")
	}
}

func TestDeterministicRuntime(t *testing.T) {
	r1, err := Render(newCluster(t, 4), skullOptions(t, 32, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Render(newCluster(t, 4), skullOptions(t, 32, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Runtime != r2.Runtime {
		t.Errorf("runtimes differ: %v vs %v", r1.Runtime, r2.Runtime)
	}
	maxErr, _ := img.Diff(r1.Image, r2.Image)
	if maxErr != 0 {
		t.Errorf("images differ across identical runs: %.6f", maxErr)
	}
}

func TestOptionValidation(t *testing.T) {
	cl := newCluster(t, 2)
	good := skullOptions(t, 16, 24, 2)
	bad := good
	bad.Source = nil
	if _, err := Render(cl, bad); err == nil {
		t.Error("nil source accepted")
	}
	bad = good
	bad.TF = nil
	if _, err := Render(cl, bad); err == nil {
		t.Error("nil TF accepted")
	}
	bad = good
	bad.Width = 0
	if _, err := Render(cl, bad); err == nil {
		t.Error("zero width accepted")
	}
	bad = good
	bad.GPUs = 99
	if _, err := Render(cl, bad); err == nil {
		t.Error("too many GPUs accepted")
	}
}

func TestPlanBricksVRAMFloor(t *testing.T) {
	// A volume bigger than one device's usable VRAM must be split even on
	// one GPU (the out-of-core regime).
	d := volume.Cube(64)      // 1 MiB
	vram := int64(400 * 1024) // tiny VRAM, 300 KiB usable: forces >= 4 bricks
	g, err := planBricks(d, 1, 1, vram)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBricks() < 4 {
		t.Errorf("VRAM floor ignored: %d bricks", g.NumBricks())
	}
	if g.MaxBrickBytes() > vram*3/4 {
		t.Errorf("brick %d bytes exceeds usable VRAM %d", g.MaxBrickBytes(), vram*3/4)
	}
}

func TestPlanBricksMatchesGPUs(t *testing.T) {
	g, err := planBricks(volume.Cube(64), 8, 1, 4<<30)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBricks() != 8 {
		t.Errorf("bricks = %d, want 8 (one per GPU)", g.NumBricks())
	}
	g, err = planBricks(volume.Cube(64), 8, 2, 4<<30)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumBricks() != 16 {
		t.Errorf("bricks = %d, want 16 (two per GPU)", g.NumBricks())
	}
}

func TestVolumePartitionerAblation(t *testing.T) {
	// Blocked (image-block) partitioning still renders the right image.
	opt := skullOptions(t, 32, 40, 4)
	opt.Partitioner = mapreduce.Blocked{KeyRange: 40 * 40}
	res, err := Render(newCluster(t, 4), opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Render(newCluster(t, 4), skullOptions(t, 32, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	maxErr, _ := img.Diff(res.Image, ref.Image)
	if maxErr > 1e-6 {
		t.Errorf("blocked partitioning changed the image by %.6f", maxErr)
	}
}
