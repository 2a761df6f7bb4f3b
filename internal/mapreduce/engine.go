package mapreduce

import (
	"fmt"

	"gvmr/internal/sim"
)

// message is one batch of key-value pairs in flight from a worker to a
// reducer. done markers piggyback on the message stream to signal that a
// worker has finished flushing.
type message[V any] struct {
	from int
	kvs  []KV[V]
	done bool
}

type stagedChunk[S any] struct {
	chunk  Chunk
	staged S
	err    error
}

// Run executes a job to completion on the cluster's environment and
// returns its statistics. The environment is run until idle; callers
// compose multi-job workflows by invoking Run repeatedly.
func Run[V, S any](cfg Config[V, S]) (*JobStats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	env := cfg.Cluster.Env
	t0 := env.Now()
	startAt := t0 + cfg.Cluster.Params.JobFixedOverhead

	kvBytes := int64(4 + cfg.ValueBytes)
	workers := make([]*Worker, cfg.Workers)
	for i := range workers {
		workers[i] = &Worker{
			Index: i,
			Dev:   cfg.Cluster.Device(i),
			Node:  cfg.Cluster.NodeOf(i),
			tr:    cfg.Trace,
			lane:  fmt.Sprintf("gpu%d", i),
			work0: cfg.Cluster.Device(i).Stats().Work,
		}
	}
	reducers := make([]*reducerState[V], cfg.Workers)
	for r := range reducers {
		reducers[r] = &reducerState[V]{
			index: r,
			node:  cfg.Cluster.NodeOf(r),
			dev:   cfg.Cluster.Device(r),
			impl:  cfg.MakeReducer(r),
			inbox: sim.NewChan[message[V]](env, fmt.Sprintf("reducer%d.inbox", r), 4096),
		}
	}

	var errs []error
	var totalWire, totalMsgs int64

	// Chunk assignment. Static round robin is the paper's scheme: each
	// worker owns a list, dealt over the workers of a chunk's home node
	// when Home names one (in-situ data stays where it was produced),
	// else over all workers. The dynamic queue, the scheduling ablation,
	// is one shared list; the simulation runs one process at a time, so
	// it needs no lock.
	lists := make([][]Chunk, cfg.Workers)
	byNode := map[int][]int{}
	for i, w := range workers {
		byNode[w.Node.ID] = append(byNode[w.Node.ID], i)
	}
	nodeCursor := map[int]int{}
	fallback := 0
	for _, c := range cfg.Chunks {
		if cfg.Home != nil {
			home := cfg.Home(c)
			if cands, ok := byNode[home]; ok {
				w := cands[nodeCursor[home]%len(cands)]
				nodeCursor[home]++
				lists[w] = append(lists[w], c)
				continue
			}
		}
		lists[fallback%cfg.Workers] = append(lists[fallback%cfg.Workers], c)
		fallback++
	}
	shared := cfg.Chunks

	workersLeft := cfg.Workers
	for _, w := range workers {
		w := w
		// The fixed job overhead occupies every GPU lane before its first
		// stage, so a trace's spans cover the whole makespan.
		w.span("setup", "setup", t0, startAt)
		env.Go(fmt.Sprintf("worker%d", w.Index), func(p *sim.Proc) {
			p.WaitUntil(startAt)

			// Loader: stages the next chunk of the worker's source. A static
			// worker stages one ahead of its map loop — the streaming
			// overlap of §3. A dynamic worker claims only on the map loop's
			// ready token, so no worker holds a chunk another could map.
			staged := sim.NewChan[stagedChunk[S]](env, fmt.Sprintf("worker%d.staged", w.Index), 1)
			src := &lists[w.Index]
			var ready *sim.Chan[struct{}]
			if cfg.Assign == AssignDynamic {
				src, ready = &shared, sim.NewChan[struct{}](env, fmt.Sprintf("worker%d.ready", w.Index), 1)
			}
			env.Go(fmt.Sprintf("worker%d.loader", w.Index), func(lp *sim.Proc) {
				lp.WaitUntil(startAt)
				for {
					if ready != nil {
						ready.Recv(lp)
					}
					if len(*src) == 0 {
						break
					}
					c := (*src)[0]
					*src = (*src)[1:]
					if cfg.FromDisk {
						ioStart := lp.Now()
						w.Node.ReadDisk(lp, c.Bytes())
						w.partIOTime += lp.Now() - ioStart
						w.span("partition+io", "disk:chunk", ioStart, lp.Now())
					}
					if cfg.Home != nil {
						if home := cfg.Home(c); home != w.Node.ID &&
							home >= 0 && home < len(cfg.Cluster.Nodes) {
							// In-situ hand-off: the producing node ships
							// the chunk over the interconnect.
							hoStart := lp.Now()
							cfg.Cluster.Transfer(lp, cfg.Cluster.Nodes[home], w.Node, c.Bytes())
							w.partIOTime += lp.Now() - hoStart
							w.span("net", "handoff:chunk", hoStart, lp.Now())
						}
					}
					s, err := cfg.Mapper.Stage(lp, w, c)
					staged.Send(lp, stagedChunk[S]{chunk: c, staged: s, err: err})
					if err != nil {
						break
					}
				}
				staged.Close(lp)
			})

			sendWG := sim.NewWaitGroup(env, fmt.Sprintf("worker%d.sends", w.Index))
			buffers := make([][]KV[V], cfg.Workers)
			bufBytes := make([]int64, cfg.Workers)

			flush := func(p *sim.Proc, r int) {
				batch := buffers[r]
				if len(batch) == 0 {
					return
				}
				buffers[r] = nil
				bufBytes[r] = 0
				// Partition cost: host CPU scans and bins the batch.
				partStart := p.Now()
				w.Node.CPUWork(p, float64(len(batch)), cfg.Cluster.Params.PartitionRate)
				w.partIOTime += p.Now() - partStart
				w.span("partition+io", "cpu:partition", partStart, p.Now())

				dst := reducers[r]
				bytes := int64(len(batch)) * kvBytes
				totalWire += bytes
				totalMsgs++
				sendWG.Add(p, 1)
				env.Go(fmt.Sprintf("worker%d.send.r%d", w.Index, r), func(sp *sim.Proc) {
					sendStart := sp.Now()
					elapsed := cfg.Cluster.Transfer(sp, w.Node, dst.node, bytes)
					w.commBusy += elapsed
					w.span("net", fmt.Sprintf("send:r%d", r), sendStart, sp.Now())
					dst.inbox.Send(sp, message[V]{from: w.Index, kvs: batch})
					sendWG.Done(sp)
				})
			}

			// emitFailed is set on the first out-of-range key: the error is
			// recorded once, later emits from the same (buggy) mapper are
			// dropped instead of growing errs without bound, and the map
			// loop below treats the worker as failed so it drains its
			// remaining chunks and exits.
			emitFailed := false
			emit := func(kv KV[V]) {
				if emitFailed {
					return
				}
				if kv.Key < 0 || kv.Key >= cfg.KeyRange {
					errs = append(errs, fmt.Errorf(
						"mapreduce: worker %d emitted key %d outside range %d",
						w.Index, kv.Key, cfg.KeyRange))
					emitFailed = true
					return
				}
				r := w.Index
				if !cfg.LocalReduce {
					r = cfg.Partitioner.Partition(kv.Key, cfg.Workers)
				}
				buffers[r] = append(buffers[r], kv)
				bufBytes[r] += kvBytes
				w.emitted++
				// Streaming send: once a reducer's buffer crosses the
				// threshold it goes on the wire immediately, overlapping
				// the rest of the map.
				if cfg.FlushBytes > 0 && bufBytes[r] >= cfg.FlushBytes {
					flush(p, r)
				}
			}

			finish := func() {
				// Unhidden communication: waiting for in-flight sends.
				waitStart := p.Now()
				sendWG.Wait(p)
				w.partIOTime += p.Now() - waitStart
				for _, rs := range reducers {
					rs.inbox.Send(p, message[V]{from: w.Index, done: true})
				}
				workersLeft--
			}

			failed := false
			if err := cfg.Mapper.Init(p, w); err != nil {
				errs = append(errs, fmt.Errorf("mapreduce: worker %d init: %w", w.Index, err))
				failed = true
			}
			for {
				// The ready token: sent at the start and after each chunk,
				// the moments the map loop holds nothing staged.
				if ready != nil {
					ready.Send(p, struct{}{})
				}
				sc, ok := staged.Recv(p)
				if !ok {
					break
				}
				if failed {
					continue // drain so the loader can exit
				}
				if sc.err != nil {
					errs = append(errs, fmt.Errorf(
						"mapreduce: worker %d staging chunk %d: %w", w.Index, sc.chunk.ID(), sc.err))
					failed = true
					continue
				}
				if err := cfg.Mapper.Map(p, w, sc.chunk, sc.staged, emit); err != nil {
					errs = append(errs, fmt.Errorf(
						"mapreduce: worker %d mapping chunk %d: %w", w.Index, sc.chunk.ID(), err))
					failed = true
					continue
				}
				if emitFailed {
					failed = true
					continue
				}
				w.chunksDone++
				// Chunk boundaries flush everything: those sends overlap
				// the next chunk's staging and mapping.
				for r := range buffers {
					flush(p, r)
				}
			}
			// Flush remainders below threshold.
			for r := range buffers {
				flush(p, r)
			}
			finish()
		})
	}

	view := &configView{
		tr:         cfg.Trace,
		workers:    cfg.Workers,
		keyRange:   cfg.KeyRange,
		valueBytes: cfg.ValueBytes,
		sortOn:     cfg.SortOn,
		reduceOn:   cfg.ReduceOn,
		sortRate:   cfg.Cluster.Params.SortRate,
		reduceRate: cfg.Cluster.Params.CompositeRate,
	}
	for _, rs := range reducers {
		rs := rs
		env.Go(fmt.Sprintf("reducer%d", rs.index), func(p *sim.Proc) {
			p.WaitUntil(startAt)
			rs.run(p, view)
		})
	}

	if err := env.Run(); err != nil {
		return nil, fmt.Errorf("mapreduce: simulation failed: %w", err)
	}
	if len(errs) > 0 {
		return nil, errs[0]
	}
	if workersLeft != 0 {
		return nil, fmt.Errorf("mapreduce: %d workers did not finish", workersLeft)
	}
	return assembleStats(cfg, env.Now()-t0, workers, reducers, totalWire, totalMsgs), nil
}

func assembleStats[V, S any](cfg Config[V, S], makespan sim.Time,
	workers []*Worker, reducers []*reducerState[V], wire, msgs int64) *JobStats {
	js := &JobStats{
		Makespan:    makespan,
		BytesOnWire: wire,
		Messages:    msgs,
	}
	perWorker := make([]StageTimes, len(workers))
	for i, w := range workers {
		perWorker[i] = StageTimes{Map: w.mapTime, PartitionIO: w.partIOTime}
		work := w.Dev.Stats().Work
		work.Sub(w.work0)
		js.Workers = append(js.Workers, WorkerStats{
			Index:    w.Index,
			Chunks:   w.chunksDone,
			Emitted:  w.emitted,
			CommBusy: w.commBusy,
			Kernel:   work,
		})
		js.TotalEmitted += w.emitted
		js.TotalSamples += work.Samples
		js.TotalSamplesSkipped += work.SamplesSkipped
		js.TotalCells += work.Cells
		js.MapCompute += w.kernelTime
		js.MapComm += w.partIOTime + w.commBusy
	}
	for _, rs := range reducers {
		js.Reducers = append(js.Reducers, rs.stats)
		js.TotalReceived += rs.stats.Received
		perWorker[rs.index].Sort += rs.stats.Sort
		perWorker[rs.index].Reduce += rs.stats.Reduce
	}
	var sum StageTimes
	for i := range perWorker {
		js.Workers[i].Stage = perWorker[i]
		sum.add(perWorker[i])
	}
	js.MeanStage = sum.scale(len(workers))
	js.MapCompute /= sim.Time(len(workers))
	js.MapComm /= sim.Time(len(workers))
	return js
}
