package mapreduce

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"gvmr/internal/cluster"
	"gvmr/internal/gpu"
	"gvmr/internal/sim"
	"gvmr/internal/trace"
)

// intChunk is a toy chunk holding raw values.
type intChunk struct {
	id   int
	vals []int32
}

func (c intChunk) ID() int      { return c.id }
func (c intChunk) Bytes() int64 { return int64(len(c.vals)) * 4 }

// histMapper bins values modulo buckets — a dense-integer-key workload
// that satisfies every paper restriction.
type histMapper struct {
	buckets     int32
	emitNegOnce bool // also emit one key -1 pair per chunk when set
	failChunk   int  // chunk ID whose Map fails (-1: never)
	failStage   int  // chunk ID whose Stage fails (-1: never)
}

func (m *histMapper) Init(Ctx, *Worker) error { return nil }

func (m *histMapper) Stage(p Ctx, w *Worker, c Chunk) ([]int32, error) {
	ic := c.(intChunk)
	if m.failStage == ic.id {
		return nil, fmt.Errorf("synthetic stage failure")
	}
	return ic.vals, nil
}

func (m *histMapper) Map(p Ctx, w *Worker, c Chunk, vals []int32, emit func(KV[int32])) error {
	if m.failChunk == c.ID() {
		return fmt.Errorf("synthetic map failure")
	}
	w.RunKernel(p, "histogram", gpu.Stats{Threads: int64(len(vals)), Emitted: int64(len(vals))})
	if m.emitNegOnce {
		emit(KV[int32]{Key: -1})
	}
	for _, v := range vals {
		emit(KV[int32]{Key: v % m.buckets, Val: 1})
	}
	return nil
}

// sumReducer accumulates per-key counts.
type sumReducer struct {
	sums map[int32]int64
}

func (r *sumReducer) Reduce(key int32, vals []int32) {
	for _, v := range vals {
		r.sums[key] += int64(v)
	}
}

func newHistConfig(t *testing.T, gpus, chunks, valsPerChunk int, buckets int32) (Config[int32, []int32], *[]*sumReducer) {
	t.Helper()
	env := sim.NewEnv()
	cl, err := cluster.New(env, cluster.AC(gpus))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(chunks)*1000 + int64(valsPerChunk)))
	var cs []Chunk
	for i := 0; i < chunks; i++ {
		vals := make([]int32, valsPerChunk)
		for j := range vals {
			vals[j] = rng.Int31n(1 << 20)
		}
		cs = append(cs, intChunk{id: i, vals: vals})
	}
	reducers := new([]*sumReducer)
	cfg := Config[int32, []int32]{
		Cluster: cl,
		Mapper:  &histMapper{buckets: buckets, failChunk: -1, failStage: -1},
		MakeReducer: func(r int) Reducer[int32] {
			sr := &sumReducer{sums: map[int32]int64{}}
			*reducers = append(*reducers, sr)
			return sr
		},
		KeyRange:   buckets,
		ValueBytes: 4,
		Chunks:     cs,
	}
	return cfg, reducers
}

// expectedHist computes ground truth for the toy workload.
func expectedHist(cfg Config[int32, []int32], buckets int32) map[int32]int64 {
	want := map[int32]int64{}
	for _, c := range cfg.Chunks {
		for _, v := range c.(intChunk).vals {
			want[v%buckets]++
		}
	}
	return want
}

func mergeSums(reducers []*sumReducer) map[int32]int64 {
	got := map[int32]int64{}
	for _, r := range reducers {
		for k, v := range r.sums {
			got[k] += v
		}
	}
	return got
}

func TestHistogramCorrectness(t *testing.T) {
	cfg, reducers := newHistConfig(t, 4, 10, 500, 64)
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := expectedHist(cfg, 64)
	got := mergeSums(*reducers)
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("bucket %d = %d, want %d", k, got[k], v)
		}
	}
	if stats.TotalEmitted != 10*500 {
		t.Errorf("TotalEmitted = %d", stats.TotalEmitted)
	}
	if stats.TotalReceived != stats.TotalEmitted {
		t.Errorf("received %d != emitted %d", stats.TotalReceived, stats.TotalEmitted)
	}
	if stats.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

func TestRoundRobinKeyRouting(t *testing.T) {
	// With round-robin partitioning, reducer r must only see keys ≡ r (mod R).
	cfg, reducers := newHistConfig(t, 4, 6, 300, 64)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for r, sr := range *reducers {
		for k := range sr.sums {
			if int(k)%len(*reducers) != r {
				t.Errorf("reducer %d saw key %d (mod %d = %d)", r, k, len(*reducers), int(k)%len(*reducers))
			}
		}
	}
}

func TestBlockedPartitioner(t *testing.T) {
	cfg, reducers := newHistConfig(t, 4, 6, 300, 64)
	cfg.Partitioner = Blocked{KeyRange: 64}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	for r, sr := range *reducers {
		lo := int32(r * 64 / len(*reducers))
		hi := int32((r + 1) * 64 / len(*reducers))
		for k := range sr.sums {
			if k < lo || k >= hi {
				t.Errorf("reducer %d saw key %d outside [%d,%d)", r, k, lo, hi)
			}
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (sim.Time, map[int32]int64) {
		cfg, reducers := newHistConfig(t, 8, 12, 400, 128)
		stats, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Makespan, mergeSums(*reducers)
	}
	m1, h1 := run()
	m2, h2 := run()
	if m1 != m2 {
		t.Errorf("makespans differ: %v vs %v", m1, m2)
	}
	for k, v := range h1 {
		if h2[k] != v {
			t.Fatalf("histograms differ at key %d", k)
		}
	}
}

// TestKeyOutOfRangeFails: a key at or past KeyRange and a negative key
// both fail the job. There is no placeholder key; a map thread that
// contributes nothing emits nothing.
func TestKeyOutOfRangeFails(t *testing.T) {
	t.Run("above", func(t *testing.T) {
		cfg, _ := newHistConfig(t, 2, 2, 50, 16)
		cfg.KeyRange = 3 // mapper emits modulo 16: some keys exceed 3
		if _, err := Run(cfg); err == nil {
			t.Error("out-of-range key accepted")
		}
	})
	t.Run("negative", func(t *testing.T) {
		cfg, _ := newHistConfig(t, 2, 4, 100, 16)
		cfg.Mapper = &histMapper{buckets: 16, emitNegOnce: true, failChunk: -1, failStage: -1}
		_, err := Run(cfg)
		if err == nil {
			t.Fatal("key -1 accepted")
		}
		if want := "emitted key -1 outside range"; !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	})
}

// overflowMapper emits Key == KeyRange for every value — each emit
// violates the key contract — and counts Map calls and emit attempts.
type overflowMapper struct {
	histMapper
	keyRange int32
	mapCalls int
	emits    int
}

func (m *overflowMapper) Map(p Ctx, w *Worker, c Chunk, vals []int32, emit func(KV[int32])) error {
	m.mapCalls++
	for range vals {
		m.emits++
		emit(KV[int32]{Key: m.keyRange, Val: 1})
	}
	return nil
}

// TestKeyOutOfRangeFailsWorker checks that the first contract violation
// marks the worker failed: it records one error, drains its remaining
// chunks without mapping them, and exits — a buggy mapper must not keep
// mapping every chunk while the error list grows without bound.
func TestKeyOutOfRangeFailsWorker(t *testing.T) {
	cfg, _ := newHistConfig(t, 1, 4, 50, 16)
	m := &overflowMapper{
		histMapper: histMapper{failChunk: -1, failStage: -1},
		keyRange:   cfg.KeyRange,
	}
	cfg.Mapper = m
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("out-of-range key accepted")
	}
	if want := "outside range"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
	if m.mapCalls != 1 {
		t.Errorf("Map called %d times, want 1 (worker must drain after the violation)", m.mapCalls)
	}
	if m.emits != 50 {
		t.Errorf("emit attempts = %d, want 50 (only the first chunk maps)", m.emits)
	}
}

func TestMapFailurePropagates(t *testing.T) {
	cfg, _ := newHistConfig(t, 4, 8, 50, 16)
	cfg.Mapper = &histMapper{buckets: 16, failChunk: 3, failStage: -1}
	if _, err := Run(cfg); err == nil {
		t.Error("map failure not propagated")
	}
}

func TestStageFailurePropagates(t *testing.T) {
	cfg, _ := newHistConfig(t, 4, 8, 50, 16)
	cfg.Mapper = &histMapper{buckets: 16, failChunk: -1, failStage: 5}
	if _, err := Run(cfg); err == nil {
		t.Error("stage failure not propagated")
	}
}

func TestConfigValidation(t *testing.T) {
	base, _ := newHistConfig(t, 2, 2, 10, 8)
	cases := []func(*Config[int32, []int32]){
		func(c *Config[int32, []int32]) { c.Cluster = nil },
		func(c *Config[int32, []int32]) { c.Workers = 99 },
		func(c *Config[int32, []int32]) { c.Mapper = nil },
		func(c *Config[int32, []int32]) { c.MakeReducer = nil },
		func(c *Config[int32, []int32]) { c.KeyRange = 0 },
		func(c *Config[int32, []int32]) { c.ValueBytes = 0 },
		func(c *Config[int32, []int32]) { c.Chunks = nil },
		func(c *Config[int32, []int32]) { c.Assign = AssignDynamic + 1 },
	}
	for i, mut := range cases {
		cfg := base
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestFromDiskChargesIO(t *testing.T) {
	cfgMem, _ := newHistConfig(t, 2, 6, 100000, 16)
	statsMem, err := Run(cfgMem)
	if err != nil {
		t.Fatal(err)
	}
	cfgDisk, _ := newHistConfig(t, 2, 6, 100000, 16)
	cfgDisk.FromDisk = true
	statsDisk, err := Run(cfgDisk)
	if err != nil {
		t.Fatal(err)
	}
	if statsDisk.Makespan <= statsMem.Makespan {
		t.Errorf("disk job %v should be slower than in-core %v",
			statsDisk.Makespan, statsMem.Makespan)
	}
	if statsDisk.MeanStage.PartitionIO <= statsMem.MeanStage.PartitionIO {
		t.Error("disk reads not attributed to Partition+I/O")
	}
}

func TestDynamicAssignmentBalancesSkew(t *testing.T) {
	// One huge chunk plus many small ones: static round-robin strands the
	// small chunks behind the huge one on the same worker in ID order,
	// dynamic pulls them to idle workers.
	build := func(assign AssignMode) sim.Time {
		env := sim.NewEnv()
		cl, err := cluster.New(env, cluster.AC(4))
		if err != nil {
			t.Fatal(err)
		}
		var cs []Chunk
		big := make([]int32, 400000)
		cs = append(cs, intChunk{id: 0, vals: big})
		for i := 1; i <= 12; i++ {
			cs = append(cs, intChunk{id: i, vals: make([]int32, 50000)})
		}
		cfg := Config[int32, []int32]{
			Cluster: cl,
			Mapper:  &histMapper{buckets: 8, failChunk: -1, failStage: -1},
			MakeReducer: func(int) Reducer[int32] {
				return &sumReducer{sums: map[int32]int64{}}
			},
			KeyRange:   8,
			ValueBytes: 4,
			Chunks:     cs,
			Assign:     assign,
		}
		stats, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Makespan
	}
	staticT := build(AssignStatic)
	dynamicT := build(AssignDynamic)
	if dynamicT > staticT {
		t.Errorf("dynamic %v should not be slower than static %v with skew", dynamicT, staticT)
	}
}

func TestGPUReduceSlowerForSmallInputs(t *testing.T) {
	// The paper found CPU compositing faster than GPU compositing because
	// of transfer costs; the model must reproduce that for modest inputs.
	cpuCfg, _ := newHistConfig(t, 2, 4, 2000, 64)
	cpuStats, err := Run(cpuCfg)
	if err != nil {
		t.Fatal(err)
	}
	gpuCfg, _ := newHistConfig(t, 2, 4, 2000, 64)
	gpuCfg.ReduceOn = OnGPU
	gpuCfg.SortOn = OnGPU
	gpuStats, err := Run(gpuCfg)
	if err != nil {
		t.Fatal(err)
	}
	cpuRR := cpuStats.MeanStage.Sort + cpuStats.MeanStage.Reduce
	gpuRR := gpuStats.MeanStage.Sort + gpuStats.MeanStage.Reduce
	if gpuRR <= cpuRR {
		t.Errorf("GPU reduce %v should be slower than CPU %v for small inputs", gpuRR, cpuRR)
	}
}

func TestStreamingFlushProducesMoreMessages(t *testing.T) {
	coarse, _ := newHistConfig(t, 2, 4, 5000, 16)
	coarse.FlushBytes = 0 // flush per chunk only
	sc, err := Run(coarse)
	if err != nil {
		t.Fatal(err)
	}
	fine, _ := newHistConfig(t, 2, 4, 5000, 16)
	fine.FlushBytes = 1024
	sf, err := Run(fine)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Messages <= sc.Messages {
		t.Errorf("threshold flushing sent %d messages, per-chunk %d", sf.Messages, sc.Messages)
	}
	if sf.TotalReceived != sc.TotalReceived {
		t.Errorf("payload differs: %d vs %d", sf.TotalReceived, sc.TotalReceived)
	}
}

func TestFixedOverheadCharged(t *testing.T) {
	// Every job pays its spec's JobFixedOverhead: the same job on AC
	// with the overhead zeroed finishes exactly that much sooner.
	a, _ := newHistConfig(t, 2, 2, 100, 8)
	a.Cluster = freeStartCluster(t, 2)
	sa, err := Run(a)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newHistConfig(t, 2, 2, 100, 8)
	sb, err := Run(b)
	if err != nil {
		t.Fatal(err)
	}
	diff := sb.Makespan - sa.Makespan
	want := cluster.AC(2).JobFixedOverhead
	if diff < want*9/10 || diff > want*11/10 {
		t.Errorf("fixed overhead added %v, want ≈%v", diff, want)
	}
}

// TestSetupSpanCoversFixedOverhead traces one 1-GPU job on AC and on AC
// without the fixed overhead: on AC the earliest span is the GPU lane's
// setup span from 0, and the spans sum to exactly the overhead more.
func TestSetupSpanCoversFixedOverhead(t *testing.T) {
	traced := func(cl *cluster.Cluster) []trace.Span {
		cfg, _ := newHistConfig(t, 1, 3, 100, 8)
		cfg.Cluster, cfg.Trace = cl, &trace.Log{}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return cfg.Trace.Spans()
	}
	sum := func(spans []trace.Span) (d sim.Time) {
		for _, s := range spans {
			d += s.End - s.Start
		}
		return d
	}
	cl, err := cluster.New(sim.NewEnv(), cluster.AC(1))
	if err != nil {
		t.Fatal(err)
	}
	overhead := cl.Params.JobFixedOverhead
	spans, free := traced(cl), traced(freeStartCluster(t, 1))
	if first := spans[0]; first.Cat != "setup" || first.Lane != "gpu0" || first.Start != 0 || first.End != overhead {
		t.Errorf("earliest span %+v, want gpu0's setup over [0, %v)", first, overhead)
	}
	var setups int
	for _, s := range spans {
		if s.Cat == "setup" {
			setups++
		}
	}
	if setups != 1 {
		t.Errorf("%d setup spans on one GPU lane, want 1", setups)
	}
	if got := sum(spans) - sum(free); got != overhead {
		t.Errorf("spans sum %v more with the fixed overhead, want exactly %v", got, overhead)
	}
}

// freeStartCluster is AC with gpus GPUs and no per-job fixed overhead.
func freeStartCluster(t *testing.T, gpus int) *cluster.Cluster {
	t.Helper()
	spec := cluster.AC(gpus)
	spec.JobFixedOverhead = 0
	cl, err := cluster.New(sim.NewEnv(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestCountingSortGroups(t *testing.T) {
	kvs := []KV[string]{
		{Key: 3, Val: "a"}, {Key: 1, Val: "b"}, {Key: 3, Val: "c"},
		{Key: 0, Val: "d"}, {Key: 1, Val: "e"},
	}
	keys, groups := CountingSort(kvs, 5)
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}
	if keys[0] != 0 || keys[1] != 1 || keys[2] != 3 {
		t.Errorf("keys not ascending: %v", keys)
	}
	if len(groups[2]) != 2 || groups[2][0] != "a" || groups[2][1] != "c" {
		t.Errorf("key 3 group = %v, want stable [a c]", groups[2])
	}
	if groups[1][0] != "b" || groups[1][1] != "e" {
		t.Errorf("key 1 group = %v, want stable [b e]", groups[1])
	}
}

// Property: counting sort produces exactly the same grouping as a generic
// comparison sort, for random inputs.
func TestCountingSortEquivalenceProperty(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	f := func() bool {
		n := r.Intn(200)
		keyRange := int32(1 + r.Intn(50))
		kvs := make([]KV[int32], n)
		for i := range kvs {
			kvs[i] = KV[int32]{Key: r.Int31n(keyRange), Val: int32(i)}
		}
		keys, groups := CountingSort(kvs, keyRange)
		// Reference: stable sort by key.
		ref := append([]KV[int32](nil), kvs...)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].Key < ref[j].Key })
		var flatKeys []int32
		var flatVals []int32
		for i, k := range keys {
			for _, v := range groups[i] {
				flatKeys = append(flatKeys, k)
				flatVals = append(flatVals, v)
			}
		}
		if len(flatKeys) != len(ref) {
			return false
		}
		for i := range ref {
			if flatKeys[i] != ref[i].Key || flatVals[i] != ref[i].Val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMoreWorkersSpreadWork(t *testing.T) {
	// Pure compute scaling: a compute-heavy job on more GPUs finishes
	// sooner (communication is tiny here). The fixed per-job set-up cost
	// does not spread over GPUs, so both runs start free of it.
	run := func(gpus int) sim.Time {
		cfg, _ := newHistConfig(t, gpus, 16, 200000, 8)
		cfg.Cluster = freeStartCluster(t, gpus)
		stats, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Makespan
	}
	t1 := run(1)
	t4 := run(4)
	if t4 >= t1 {
		t.Errorf("4 GPUs (%v) not faster than 1 (%v)", t4, t1)
	}
	if t4 > t1/2 {
		t.Errorf("4 GPUs (%v) should be well under half of 1 GPU (%v)", t4, t1)
	}
}

func TestWorkerStatspopulated(t *testing.T) {
	cfg, _ := newHistConfig(t, 4, 8, 1000, 32)
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Workers) != 4 || len(stats.Reducers) != 4 {
		t.Fatalf("stats sizes: %d workers, %d reducers", len(stats.Workers), len(stats.Reducers))
	}
	var chunks int
	for _, w := range stats.Workers {
		chunks += w.Chunks
		if w.Stage.Map <= 0 {
			t.Errorf("worker %d has zero map time", w.Index)
		}
	}
	if chunks != 8 {
		t.Errorf("chunks processed = %d, want 8", chunks)
	}
	if stats.Messages == 0 || stats.BytesOnWire == 0 {
		t.Error("wire stats empty")
	}
	if stats.MeanStage.Sort <= 0 || stats.MeanStage.Reduce <= 0 {
		t.Error("reducer stages not folded into MeanStage")
	}
}

func TestAffinityAssignmentAvoidsHandoff(t *testing.T) {
	// Chunks homed on the workers' nodes: static assignment with Home maps
	// each on its home node, so no interconnect hand-off is charged; the
	// misplaced variant (all chunks homed on node 0) must pay transfers.
	run := func(home func(c Chunk) int) *JobStats {
		cfg, _ := newHistConfig(t, 8, 16, 20000, 16) // 2 nodes
		cfg.Home = home
		stats, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	local := run(func(c Chunk) int { return c.ID() % 2 })
	remote := run(func(c Chunk) int { return 0 }) // all on node 0: node 0 overloaded
	if remote.Makespan <= local.Makespan {
		t.Errorf("misplaced data %v should be slower than local %v",
			remote.Makespan, local.Makespan)
	}
}

func TestAffinityFallsBackForUnknownHome(t *testing.T) {
	cfg, reducers := newHistConfig(t, 2, 6, 500, 16)
	cfg.Home = func(c Chunk) int { return 99 } // no such node
	stats, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var chunks int
	for _, w := range stats.Workers {
		chunks += w.Chunks
	}
	if chunks != 6 {
		t.Errorf("fallback dropped chunks: %d of 6", chunks)
	}
	got := mergeSums(*reducers)
	want := expectedHist(cfg, 16)
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("histogram wrong under fallback at key %d", k)
		}
	}
}

func TestHomeChargesHandoffWithStaticAssign(t *testing.T) {
	// A chunk mapped off its home node pays the interconnect transfer.
	// Static assignment does so only when the home node runs none of the
	// job's workers (here 4 workers, all on node 0 of two); the dynamic
	// queue whenever a worker of another node claims the chunk.
	run := func(assign AssignMode, workers int, home func(Chunk) int) *JobStats {
		cfg, _ := newHistConfig(t, 8, 8, 120000, 16)
		cfg.Assign, cfg.Workers, cfg.Home = assign, workers, home
		stats, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	onNode := func(n int) func(Chunk) int { return func(Chunk) int { return n } }
	for _, tc := range []struct {
		name          string
		assign        AssignMode
		workers       int
		local, remote func(Chunk) int
	}{
		{"static, home node idle", AssignStatic, 4, onNode(0), onNode(1)},
		{"dynamic", AssignDynamic, 8, nil, onNode(1)},
	} {
		local := run(tc.assign, tc.workers, tc.local)
		remote := run(tc.assign, tc.workers, tc.remote)
		if remote.Makespan <= local.Makespan || remote.MapComm <= local.MapComm {
			t.Errorf("%s: hand-offs (%v, comm %v) should cost more than local data (%v, comm %v)",
				tc.name, remote.Makespan, remote.MapComm, local.Makespan, local.MapComm)
		}
	}
}

func TestDynamicMapsOnEveryGPU(t *testing.T) {
	// A worker claims from the dynamic queue only when its map loop has
	// nothing staged, so c chunks on g GPUs keep min(c, g) of them busy,
	// and the reducers see exactly what static assignment gives them.
	const g = 8
	for _, c := range []int{g / 2, g, 4 * g} {
		run := func(assign AssignMode) (*JobStats, []*sumReducer) {
			cfg, reducers := newHistConfig(t, g, c, 5000, 64)
			cfg.Assign = assign
			stats, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return stats, *reducers
		}
		static, sr := run(AssignStatic)
		dynamic, dr := run(AssignDynamic)
		busy := 0
		for _, w := range dynamic.Workers {
			if w.Chunks > 0 {
				busy++
			}
		}
		if busy != min(c, g) {
			t.Errorf("%d chunks: dynamic kept %d of %d GPUs busy, want %d", c, busy, g, min(c, g))
		}
		if dynamic.TotalEmitted != static.TotalEmitted {
			t.Errorf("%d chunks: dynamic emitted %d pairs, static %d", c, dynamic.TotalEmitted, static.TotalEmitted)
		}
		for r := range sr {
			if fmt.Sprint(dr[r].sums) != fmt.Sprint(sr[r].sums) {
				t.Errorf("%d chunks: reducer %d differs between dynamic and static", c, r)
			}
		}
	}
}
