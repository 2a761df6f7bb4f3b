package volume_test

import (
	"math"
	"testing"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/core"
	"gvmr/internal/render"
	"gvmr/internal/transfer"
	"gvmr/internal/vec"
	"gvmr/internal/volume"
	"gvmr/internal/volume/dataset"
)

// TestResidentBoxCoversEveryFetch is the sufficiency check of the resident
// box, the part of a brick an upload copies (render.ResidentBox): every
// brick is cast again from a copy that holds only its box, every voxel
// outside it NaN (or +Inf, which a read with nonzero weight turns
// visible), sharing the brick's macrocell grid. Every pixel of every
// brick's footprint must give bit-identical fragments and SampleStats.
// The grids are a convex 4-GPU job's and an interleave:2 job's (2 GPUs × 8
// bricks); the skull's cores and some of the supernova's start off the
// 4-voxel cell lattice.
func TestResidentBoxCoversEveryFetch(t *testing.T) {
	cases := []struct {
		name string
		dims volume.Dims
	}{
		{dataset.Skull, volume.Cube(44)},
		{dataset.Supernova, volume.Cube(40)},
		{dataset.Plume, volume.Dims{X: 32, Y: 32, Z: 64}},
	}
	jobs := []core.Options{
		{GPUs: 4},
		{GPUs: 2, BricksPerGPU: 8, Partition: core.Interleaved{NumParts: 2}},
	}
	const size = 40
	var fetched, partBoxes int
	for _, c := range cases {
		src, err := dataset.New(c.name, c.dims)
		if err != nil {
			t.Fatal(err)
		}
		vol, err := volume.Materialize(src)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := transfer.Preset(c.name)
		if err != nil {
			t.Fatal(err)
		}
		for _, job := range jobs {
			job.Source, job.TF, job.Width, job.Height = src, tf, size, size
			grid, err := core.PlanGrid(cluster.AC(job.GPUs), job)
			if err != nil {
				t.Fatal(err)
			}
			for _, deg := range []float64{20, 145, 250} {
				cam, err := core.OrbitCamera(src, size, size, deg)
				if err != nil {
					t.Fatal(err)
				}
				for _, shading := range []bool{false, true} {
					for _, step := range []float32{1, 0.5} {
						prm := render.Params{TF: tf, StepVoxels: step, TerminationAlpha: 0.98, Shading: shading}
						for _, b := range grid.Bricks {
							view := volume.ViewBrick(vol, b)
							box := render.ResidentBox(view, prm)
							if box != b.Ghost {
								partBoxes++
							}
							fp, ok := cam.ProjectAABB(b.Bounds)
							if !ok {
								continue
							}
							want := prm.PrepareBrick(view)
							for _, outside := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
								cp := volume.ResidentCopy(view, box, outside)
								got := prm.PrepareBrick(cp)
								for py := fp.Y0; py <= fp.Y1; py++ {
									for px := fp.X0; px <= fp.X1; px++ {
										fw, sw := render.SampleOne(render.CastRay, cam, grid.Space, view, want, px, py)
										fg, sg := render.SampleOne(render.CastRay, cam, grid.Space, cp, got, px, py)
										if sw != sg || !sameFragment(fw, fg) {
											t.Fatalf("%s %v, %d GPUs, %d°, shading %v, step %v, brick %d box %+v, outside %v, pixel (%d,%d): %+v %+v, want %+v %+v",
												c.name, c.dims, job.GPUs, int(deg), shading, step, b.ID, box, outside, px, py, fg, sg, fw, sw)
										}
										fetched += int(sw.Samples)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// The battery is vacuous unless rays fetch and boxes shrink.
	if fetched == 0 || partBoxes == 0 {
		t.Errorf("%d fetches, %d boxes short of the ghost region: want both above 0", fetched, partBoxes)
	}
}

// TestResidentBoxCoversGradientRounding pins the margin's second voxel:
// a visible shaded sample at x just under 127.5, half a voxel inside an
// occupied region whose upper face is x = 128. Exactly, its gradient's +x
// fetch reads voxels 127 and 128, one past the face; but x+1 rounds up to
// 128.5 in float32 (the sum crosses the power of two at 128), so the fetch
// reads 128 and 129, the latter at weight 0 — which still turns a NaN
// into a NaN gradient. The battery's rays never land on that one float,
// so only this position shows a one-voxel margin falls short.
func TestResidentBoxCoversGradientRounding(t *testing.T) {
	vol := volume.New(volume.Dims{X: 160, Y: 8, Z: 8})
	for i := range vol.Data {
		if i%vol.Dims.X < 127 {
			vol.Data[i] = 1
		}
	}
	tf, err := transfer.FromPoints([]transfer.Point{{S: 0}, {S: 1, C: vec.V4{X: 1, Y: 1, Z: 1, W: 1}}}, transfer.DefaultTableSize)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := volume.MakeGrid(vol.Dims, [3]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	view := volume.ViewBrick(vol, grid.Bricks[0])
	prm := render.Params{TF: tf, StepVoxels: 1, TerminationAlpha: 0.98, Shading: true}
	box := render.ResidentBox(view, prm)
	smp := volume.ResidentCopy(view, box, float32(math.NaN())).Sampler()
	x := math.Nextafter32(127.5, 0)
	if x+1 != 128.5 {
		t.Fatalf("premise: %v+1 = %v in float32, want 128.5", x, x+1)
	}
	tx, ty, tz := smp.TapX(x), smp.TapY(4), smp.TapZ(4)
	if s := smp.Fetch(tx, ty, tz); tf.Lookup(s).W == 0 {
		t.Fatalf("premise: the sample at x = %v (value %v) is invisible", x, s)
	}
	gx, gy, gz := smp.Gradient(x, 4, 4, tx, ty, tz)
	if g := (vec.V3{X: gx, Y: gy, Z: gz}); g.Len() != g.Len() {
		t.Errorf("gradient at x = %v is %v: box %+v misses a voxel it reads", x, g, box)
	}
}

func sameFragment(a, b composite.Fragment) bool {
	bits := math.Float32bits
	return a.Key == b.Key && bits(a.R) == bits(b.R) && bits(a.G) == bits(b.G) &&
		bits(a.B) == bits(b.B) && bits(a.A) == bits(b.A) && bits(a.Depth) == bits(b.Depth)
}

// TestResidentBoxBounds pins the box's two ends: the whole ghost region
// when skipping is off, and nothing for a payload-free brick proven
// invisible at staging.
func TestResidentBoxBounds(t *testing.T) {
	src, err := dataset.New(dataset.Skull, volume.Cube(32))
	if err != nil {
		t.Fatal(err)
	}
	vol, err := volume.Materialize(src)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := volume.MakeGrid(vol.Dims, [3]int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	tf := transfer.SkullPreset()
	for _, b := range grid.Bricks {
		off := render.Params{TF: tf, StepVoxels: 1, TerminationAlpha: 0.98, NoEmptySkip: true}
		if box := render.ResidentBox(volume.ViewBrick(vol, b), off); box != b.Ghost {
			t.Errorf("brick %d without skipping: box %+v, want the ghost region %+v", b.ID, box, b.Ghost)
		}
		on := off
		on.NoEmptySkip = false
		if box := render.ResidentBox(volume.EmptyBrickData(b, 0, 0), on); box.Ext.Voxels() != 0 {
			t.Errorf("payload-free brick %d: box %+v, want empty", b.ID, box)
		}
	}
}
