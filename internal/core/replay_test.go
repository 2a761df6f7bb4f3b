package core

import (
	"fmt"
	"testing"

	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/sim"
)

// recordedCharges maps every unit of opt's job on 1-GPU nodes, in
// `batches` interleaved batches as a fleet of that many workers might,
// checks each record against the plan and its stripe, and returns the
// plan with the records in unit order.
func recordedCharges(t *testing.T, spec cluster.Spec, opt Options, batches int) (*Replay, []UnitCharges) {
	t.Helper()
	plan, err := PlanReplay(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	charges := make([]UnitCharges, plan.Units())
	for b := 0; b < batches; b++ {
		var ids []int
		for u := b; u < plan.Units(); u += batches {
			ids = append(ids, u)
		}
		if len(ids) == 0 {
			continue
		}
		mr, err := MapBricks(cluster.AC(1), opt, ids, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range mr.Charges {
			if err := plan.Check(c); err != nil {
				t.Fatalf("unit %d: %v", c.Unit, err)
			}
			if err := plan.CheckStripe(c, mr.Stripes[i].Frags); err != nil {
				t.Fatal(err)
			}
			charges[c.Unit] = c
		}
	}
	return plan, charges
}

// TestReplayMatchesRender: replaying the units' recorded charges gives
// RenderOn's virtual time and engine statistics exactly, whichever batches
// the units were mapped in, across GPU counts, bricks per GPU, convex and
// non-convex units, and a unit that fills a reducer's send buffer
// mid-chunk; the gather term adds one message per mapping GPU and every
// fragment at the engine's wire size.
func TestReplayMatchesRender(t *testing.T) {
	type tc struct {
		gpus, perGPU, image int
		part                Partition
	}
	var cases []tc
	for _, gpus := range []int{1, 2, 4, 8} {
		for _, perGPU := range []int{1, 4} {
			cases = append(cases, tc{gpus, perGPU, 48, nil})
			if gpus*perGPU >= 2 {
				cases = append(cases, tc{gpus, perGPU, 48, Interleaved{NumParts: 2}})
			}
		}
	}
	cases = append(cases, tc{1, 1, 320, nil}) // one unit of over flushKVs fragments
	for _, c := range cases {
		name := fmt.Sprintf("%dgpu-%dper-%dpx", c.gpus, c.perGPU, c.image)
		if c.part != nil {
			name += "-" + c.part.Name()
		}
		t.Run(name, func(t *testing.T) {
			opt := skullOptions(t, 32, c.image, c.gpus)
			opt.Shading = true
			opt.BricksPerGPU, opt.Partition = c.perGPU, c.part
			spec := cluster.AC(c.gpus)
			want, dur, err := RenderOn(spec, opt, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, batches := range []int{1, 3} {
				plan, charges := recordedCharges(t, spec, opt, batches)
				if c.image == 320 && len(charges[0].Bricks[0].Flushes) == 0 {
					t.Fatal("premise: the unit does not flush mid-chunk")
				}
				got, err := plan.Run(charges, false)
				if err != nil {
					t.Fatal(err)
				}
				if got.Runtime != dur || got.Runtime != want.Runtime {
					t.Errorf("%d batches: replay %v, render %v", batches, got.Runtime, dur)
				}
				w, g := want.Stats, got.Stats
				if g.BytesOnWire != w.BytesOnWire || g.Messages != w.Messages || g.TotalEmitted != w.TotalEmitted ||
					g.TotalSamples != w.TotalSamples || g.TotalCells != w.TotalCells || g.MeanStage != w.MeanStage {
					t.Errorf("%d batches: replay stats %+v, render %+v", batches, g, w)
				}
				classic, err := plan.Run(charges, true)
				if err != nil {
					t.Fatal(err)
				}
				var frags int64
				for _, u := range charges {
					frags += u.Fragments()
				}
				if frags != w.TotalEmitted {
					t.Errorf("records hold %d fragments, render emitted %d", frags, w.TotalEmitted)
				}
				gather := sim.Time(min(c.gpus, plan.Units()))*(spec.NICLatency+spec.MsgOverhead) +
					sim.BytesTime(frags*composite.FragmentBytes, spec.NICBandwidth)
				if classic.Runtime != dur+gather {
					t.Errorf("classic %v, want render %v + gather %v", classic.Runtime, dur, gather)
				}
			}
		})
	}
}
