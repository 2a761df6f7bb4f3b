package dist

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"gvmr/internal/resilience"
	"gvmr/internal/volume/dataset"
)

// Differential check of the one ring walk against the three pickers it
// replaced, kept here as test-only copies, over generated fleets: every
// breaker state placement can see, busy marks, exclusions and caps.

// oldPlace picked the node for one re-placed brick.
func oldPlace(v clusterView, job JobSpec, brick int, excluded map[string]bool) string {
	seq := v.ring.sequence(brickKey(job, brick))
	firstAlive := ""
	for _, i := range seq {
		a := v.addrs[i]
		if excluded[a] {
			continue
		}
		if firstAlive == "" {
			firstAlive = a
		}
		if v.placeable(a) {
			return a
		}
	}
	return firstAlive
}

// oldPlaceBounded picked the node for one brick of the initial placement.
func oldPlaceBounded(v clusterView, job JobSpec, brick int, loads map[string][]int, cap int) string {
	seq := v.ring.sequence(brickKey(job, brick))
	firstAlive, firstHealthy := "", ""
	for _, i := range seq {
		a := v.addrs[i]
		if firstAlive == "" {
			firstAlive = a
		}
		if !v.placeable(a) {
			continue
		}
		if firstHealthy == "" {
			firstHealthy = a
		}
		if len(loads[a]) < cap {
			return a
		}
	}
	if firstHealthy != "" {
		return firstHealthy
	}
	return firstAlive
}

// oldAlternate picked a hedge target (from a view it fetched itself).
func oldAlternate(v clusterView, job JobSpec, brick int, tried, excluded map[string]bool) string {
	seq := v.ring.sequence(brickKey(job, brick))
	for _, i := range seq {
		a := v.addrs[i]
		if tried[a] || excluded[a] {
			continue
		}
		if v.placeable(a) {
			return a
		}
	}
	return ""
}

// oldPlaceInitial was the initial placement over oldPlaceBounded.
func oldPlaceInitial(v clusterView, job JobSpec, numBricks int) map[string][]int {
	perNode := make(map[string][]int)
	healthyNow := 0
	for _, a := range v.addrs {
		if v.placeable(a) {
			healthyNow++
		}
	}
	if healthyNow == 0 {
		healthyNow = len(v.addrs)
	}
	cap := (numBricks + healthyNow - 1) / healthyNow
	for id := 0; id < numBricks; id++ {
		a := oldPlaceBounded(v, job, id, perNode, cap)
		perNode[a] = append(perNode[a], id)
	}
	for _, bricks := range perNode {
		sort.Ints(bricks)
	}
	return perNode
}

// genView builds a fleet of 1–6 nodes whose breakers sit closed, open,
// half-open with a probe slot free, or half-open with every slot taken,
// some of them marked busy by a 429.
func genView(rng *rand.Rand) clusterView {
	clk := newChaosClock()
	cfg := resilience.BreakerConfig{Now: clk.Now}
	v := clusterView{nodes: map[string]*resilience.Breaker{}}
	state, busy := map[string]int{}, map[string]bool{}
	for i := 1 + rng.Intn(6); i > 0; i-- {
		a := fmt.Sprintf("http://10.0.0.%d:9000", i)
		v.addrs = append(v.addrs, a)
		v.nodes[a] = resilience.NewBreaker(cfg)
		busy[a] = rng.Intn(4) == 0
		state[a] = rng.Intn(4)
	}
	v.ring = newRing(v.addrs)
	for _, a := range v.addrs {
		if state[a] >= 2 { // half-open once the clock passes the open period
			tripOpen(v.nodes[a])
		}
	}
	clk.Advance(6 * time.Second)
	for _, a := range v.addrs {
		switch state[a] {
		case 1:
			tripOpen(v.nodes[a])
		case 3:
			v.nodes[a].Admit()
		}
		if busy[a] {
			v.nodes[a].Busy()
		}
	}
	return v
}

func genSubset(rng *rand.Rand, addrs []string) map[string]bool {
	m := map[string]bool{}
	for _, a := range addrs {
		if rng.Intn(3) == 0 {
			m[a] = true
		}
	}
	return m
}

// TestRingWalkMatchesPickersGenerated: pick with ordered preferences
// makes every choice the three old pickers made, and the initial
// placement built on it assigns the same bricks.
func TestRingWalkMatchesPickersGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 300; trial++ {
		v := genView(rng)
		job := JobSpec{Dataset: dataset.Skull, Edge: 8 + rng.Intn(64), GPUs: 1 + rng.Intn(16)}
		excluded, tried := genSubset(rng, v.addrs), genSubset(rng, v.addrs)
		avoid := map[string]bool{}
		for a := range excluded {
			avoid[a] = true
		}
		for a := range tried {
			avoid[a] = true
		}
		loads := map[string][]int{}
		for _, a := range v.addrs {
			loads[a] = make([]int, rng.Intn(4))
		}
		cap := 1 + rng.Intn(3)
		underCap := func(a string) bool { return v.placeable(a) && len(loads[a]) < cap }
		for brick := 0; brick < 16; brick++ {
			if got, want := v.pick(job, brick, excluded, v.placeable, anyNode), oldPlace(v, job, brick, excluded); got != want {
				t.Fatalf("trial %d brick %d: re-placement %q, old %q", trial, brick, got, want)
			}
			if got, want := v.pick(job, brick, nil, underCap, v.placeable, anyNode), oldPlaceBounded(v, job, brick, loads, cap); got != want {
				t.Fatalf("trial %d brick %d: bounded placement %q, old %q", trial, brick, got, want)
			}
			if got, want := v.pick(job, brick, avoid, v.placeable), oldAlternate(v, job, brick, tried, excluded); got != want {
				t.Fatalf("trial %d brick %d: hedge target %q, old %q", trial, brick, got, want)
			}
		}
		numBricks := 1 + rng.Intn(24)
		if got, want := v.placeInitial(job, numBricks), oldPlaceInitial(v, job, numBricks); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: initial placement %v, old %v", trial, got, want)
		}
	}
}
