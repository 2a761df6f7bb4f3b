package dist

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// ring is a consistent-hash ring over worker nodes. Placement serves two
// masters: staging-cache affinity (the same brick of the same dataset
// lands on the same node frame after frame, so the node's staging cache
// and macrocell grids stay hot) and stability under membership change (a
// node death moves only that node's arc, not every brick). Each node
// projects ringReplicas virtual points onto the ring; a key walks clockwise
// from its hash and takes nodes in the order their points appear — that
// walk is also the deterministic re-placement order when the first choice
// is down.
type ring struct {
	points []ringPoint
	nodes  int
}

type ringPoint struct {
	hash uint64
	node int
}

func hash64(s string) uint64 {
	f := fnv.New64a()
	f.Write([]byte(s))
	// FNV-1a alone avalanches poorly for short keys differing only in
	// their trailing characters (the last byte gets a single multiply),
	// which clusters a node's virtual points — and similar brick keys —
	// into contiguous arcs. The Murmur3 finalizer spreads them.
	h := f.Sum64()
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ringReplicas is the virtual-point count per node.
const ringReplicas = 64

func newRing(addrs []string) *ring {
	r := &ring{nodes: len(addrs)}
	for i, a := range addrs {
		for v := 0; v < ringReplicas; v++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", a, v)), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// sequence returns every node exactly once, in the order their virtual
// points appear walking clockwise from key's hash: element 0 is the
// primary placement, the rest the failover order.
func (r *ring) sequence(key string) []int {
	if r.nodes == 0 {
		return nil
	}
	start := sort.Search(len(r.points), func(i int) bool {
		return r.points[i].hash >= hash64(key)
	})
	seq := make([]int, 0, r.nodes)
	seen := make([]bool, r.nodes)
	for i := 0; i < len(r.points) && len(seq) < r.nodes; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			seq = append(seq, p.node)
		}
	}
	return seq
}

// brickKey is the placement key of one brick of one job identity. It
// hashes the dataset identity and brick ID but NOT the camera: every
// frame of an orbit places brick i on the same node, which is exactly the
// staging-cache affinity the ring exists for.
func brickKey(j JobSpec, brick int) string {
	return fmt.Sprintf("%s|e%d|g%d|b%d", j.Dataset, j.Edge, j.GPUs, brick)
}
