package core

import (
	"math"
	"strings"
	"testing"

	"gvmr/internal/camera"
	"gvmr/internal/mapreduce"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
)

func TestCameraSizeMismatchRejected(t *testing.T) {
	opt := skullOptions(t, 16, 32, 2)
	cam, err := camera.New(vec.New3(0, 0, 2), vec.New3(0, 0, 0), vec.New3(0, 1, 0),
		math.Pi/4, 64, 64) // camera 64², options 32²
	if err != nil {
		t.Fatal(err)
	}
	opt.Camera = cam
	if _, err := Render(newCluster(t, 2), opt); err == nil ||
		!strings.Contains(err.Error(), "camera image") {
		t.Errorf("mismatched camera accepted: %v", err)
	}
}

func TestPlanBricksImpossible(t *testing.T) {
	// A volume that cannot be cut small enough: 2³ voxels but 1-byte
	// usable VRAM (three quarters of 2).
	if _, err := planBricks(volume.Cube(2), 1, 1, 2); err == nil {
		t.Error("impossible bricking accepted")
	}
}

func TestRenderStageBreakdownConsistency(t *testing.T) {
	res, err := Render(newCluster(t, 4), skullOptions(t, 32, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.MeanStage
	// The stacked stage decomposition must be positive in map and
	// bounded by a small multiple of the makespan (stages overlap but
	// per-worker busy time cannot exceed the frame many times over).
	if st.Map <= 0 {
		t.Error("no map time")
	}
	if st.Total() > 3*res.Runtime {
		t.Errorf("stacked stages %v >> makespan %v", st.Total(), res.Runtime)
	}
	// §6.3 decomposition is populated.
	if res.Stats.MapCompute <= 0 || res.Stats.MapComm <= 0 {
		t.Error("map compute/comm decomposition empty")
	}
}

func TestGPUReducePlacement(t *testing.T) {
	opt := skullOptions(t, 32, 40, 4)
	opt.ReduceOn = mapreduce.OnGPU
	opt.SortOn = mapreduce.OnGPU
	res, err := Render(newCluster(t, 4), opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Render(newCluster(t, 4), skullOptions(t, 32, 40, 4))
	if err != nil {
		t.Fatal(err)
	}
	// Same image regardless of placement.
	for i := range res.Image.Pix {
		if res.Image.Pix[i] != ref.Image.Pix[i] {
			t.Fatal("GPU reduce changed the image")
		}
	}
}

func TestUnknownCompositorRejected(t *testing.T) {
	opt := skullOptions(t, 16, 24, 2)
	opt.Compositor = Compositor(99)
	if _, err := Render(newCluster(t, 2), opt); err == nil {
		t.Error("unknown compositor accepted")
	}
}
