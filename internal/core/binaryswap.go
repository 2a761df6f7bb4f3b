package core

import (
	"fmt"
	"math/bits"

	"gvmr/internal/camera"
	"gvmr/internal/cluster"
	"gvmr/internal/composite"
	"gvmr/internal/img"
	"gvmr/internal/sim"
	"gvmr/internal/trace"
	"gvmr/internal/vec"
)

// swapBatch is one half-image's worth of fragments exchanged in a round.
type swapBatch struct {
	round int
	// pixels carries the sender's fragments for the receiver's key range.
	pixels map[int32][]composite.Fragment
}

// binarySwap runs the classic binary-swap exchange (Ma et al. [16]) over
// the per-node partial images — parts[i] holds, per pixel, the fragments
// of the units GPU i mapped in the LocalReduce job: log2(W)
// synchronous rounds in which partners split their current key range,
// exchange the halves they are giving up, and merge. Each node ends up
// owning 1/W of the image fully composited. Unlike the classic algorithm
// this exchanges fragment lists, not pre-blended pixels, so compositing
// stays exact when bricks from different nodes interleave in depth (the
// cost model charges the actual larger payload).
//
// The returned time is the virtual duration of the exchange plus the
// final local composite; writing into the output image is the untimed
// stitch. tr, when non-nil, gets each round's exchange (net) and merge
// (reduce) and the final composite (reduce) on the node's gpuN lane.
func binarySwap(cl *cluster.Cluster, cam *camera.Camera, parts []map[int32][]composite.Fragment,
	background vec.V4, out *img.Image, tr *trace.Log) (sim.Time, error) {
	w := len(parts)
	rounds := bits.TrailingZeros(uint(w))
	env := cl.Env
	start := env.Now()

	// One inbox per (worker, round): a fast node may race ahead and send
	// its round-k batch before a slower third node has delivered round
	// k-1, so messages must be matched by round, not arrival order.
	inboxes := make([][]*sim.Chan[swapBatch], w)
	for i := range inboxes {
		inboxes[i] = make([]*sim.Chan[swapBatch], rounds)
		for r := range inboxes[i] {
			inboxes[i][r] = sim.NewChan[swapBatch](env, fmt.Sprintf("swap%d.inbox%d", i, r), 1)
		}
	}
	type owned struct {
		lo, hi int32
		pixels map[int32][]composite.Fragment
	}
	finals := make([]map[int32]vec.V4, w)
	keyRange := int32(cam.Width * cam.Height)

	for i := 0; i < w; i++ {
		i := i
		st := owned{lo: 0, hi: keyRange, pixels: parts[i]}
		env.Go(fmt.Sprintf("swap%d", i), func(p *sim.Proc) {
			node := cl.NodeOf(i)
			span := func(cat, name string, start sim.Time) {
				tr.Add(trace.Span{Name: name, Cat: cat, Lane: fmt.Sprintf("gpu%d", i), Start: start, End: p.Now()})
			}
			for r := 0; r < rounds; r++ {
				sent := p.Now()
				partner := i ^ (1 << r)
				mid := st.lo + (st.hi-st.lo)/2
				var keepLo, keepHi int32
				var sendLo, sendHi int32
				if i&(1<<r) == 0 {
					keepLo, keepHi = st.lo, mid
					sendLo, sendHi = mid, st.hi
				} else {
					keepLo, keepHi = mid, st.hi
					sendLo, sendHi = st.lo, mid
				}
				give := map[int32][]composite.Fragment{}
				var giveFrags int64
				for k, fr := range st.pixels {
					if k >= sendLo && k < sendHi {
						give[k] = fr
						giveFrags += int64(len(fr))
						delete(st.pixels, k)
					}
				}
				cl.Transfer(p, node, cl.NodeOf(partner), giveFrags*composite.FragmentBytes)
				inboxes[partner][r].Send(p, swapBatch{round: r, pixels: give})
				got, ok := inboxes[i][r].Recv(p)
				if !ok || got.round != r {
					panic(fmt.Sprintf("swap%d: round mismatch", i))
				}
				span("net", "swap:exchange", sent)
				merge := p.Now()
				var gotFrags int64
				for k, fr := range got.pixels {
					st.pixels[k] = append(st.pixels[k], fr...)
					gotFrags += int64(len(fr))
				}
				// Merging received fragments into the kept half is host
				// CPU work.
				node.CPUWork(p, float64(gotFrags), cl.Params.CompositeRate)
				span("reduce", "swap:merge", merge)
				st.lo, st.hi = keepLo, keepHi
			}
			// Final local composite of the owned slice.
			composited := p.Now()
			final := make(map[int32]vec.V4, len(st.pixels))
			var n int64
			for k, fr := range st.pixels {
				final[k] = composite.CompositePixel(fr, background)
				n += int64(len(fr))
			}
			node.CPUWork(p, float64(n), cl.Params.CompositeRate)
			span("reduce", "swap:composite", composited)
			finals[i] = final
		})
	}
	if err := env.Run(); err != nil {
		return 0, fmt.Errorf("core: binary swap failed: %w", err)
	}
	for _, final := range finals {
		for k, c := range final {
			out.SetKey(k, c)
		}
	}
	return env.Now() - start, nil
}
