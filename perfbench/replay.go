package main

// The traced run's in-process replay: the workload's generated inputs go
// through the public entry points of every layer the daemon links, in the
// order the daemon composes them, with one span around each call. The spans
// are recorded here, in the benchmark, never inside the program.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/compare"
	"repro/internal/geom"
	"repro/internal/gpu"
	"repro/internal/parser"
	"repro/internal/pipeline"
	"repro/internal/pixelbox"
	"repro/internal/rtree"
	"repro/internal/sched"
	"repro/internal/store"
)

// storeOpens is how many times the replay times store.Open over the
// daemon's finished data dir; store.open_ms is their median.
const storeOpens = 5

// daemonSched is the scheduler configuration sccgd builds from daemonFlags.
func daemonSched() sched.Config { return sched.Config{Devices: 1, HybridCPU: true} }

// daemonPipeline is the pipeline configuration the scheduler gives one shard
// under daemonSched: one leased GPU plus two co-executing PixelBox-CPU
// aggregators, every other knob at its default.
func daemonPipeline(dev *gpu.Device) pipeline.Config {
	return pipeline.Config{Devices: []*gpu.Device{dev}, CPUAggregators: 2}
}

// replayCounts are the counts the replay takes at the layer boundaries.
type replayCounts struct {
	rawBytes      int64 // polygon text parsed
	writtenBytes  int64 // segment bytes the store wrote for it
	candidates    int64 // R-tree join output pairs
	nodesVisited  int64
	kernelPairs   int64 // pairs given to the direct PixelBox calls
	deviceSeconds float64
	launches      int64 // kernel launches of the replayed pipeline runs
	pairsFiltered int64
	pairsOnGPU    int64
	migrated      int64
	plannedCells  int
	exactCells    int
}

// replay runs the workload's datasets through every layer; dataDir is the
// stopped daemon's data dir, which store.Open recovers as a restart would.
// Wrong answers are counted through b.fail; an error means the replay could
// not run.
func (b *bench) replay(ctx context.Context, data []dataset, dataDir string) (replayCounts, error) {
	rec := b.rec
	var rc replayCounts
	dir := filepath.Join(b.dir, "replay-store")
	st, err := store.Open(dir)
	if err != nil {
		return rc, err
	}
	refs := make([]pipeline.Result, len(data))
	for i := range data {
		if refs[i], err = cpuReference(data[i].polyTasks()); err != nil {
			return rc, fmt.Errorf("reference for %s: %w", data[i].Name, err)
		}
	}

	// Ingest, as PUT /datasets composes it: parse each tile's text, then
	// append it to the segment; commit seals the dataset.
	ids := make([]string, len(data))
	for i, d := range data {
		op := b.op()
		root := rec.begin("bench.ingest", op, -1)
		sp := rec.begin("store.ingest", op, root)
		w, err := st.NewWriter(d.Name)
		if err != nil {
			return rc, err
		}
		for _, t := range d.Tiles {
			ps := rec.begin("parser.parse", op, sp)
			a, errA := parser.Parse(t.RawA)
			bb, errB := parser.Parse(t.RawB)
			rec.end(ps)
			if err := errors.Join(errA, errB); err != nil {
				w.Abort()
				return rc, fmt.Errorf("parse %s tile %d: %w", d.Name, t.Index, err)
			}
			if err := w.AddTile(imageName, t.Index, a, bb); err != nil {
				w.Abort()
				return rc, err
			}
			rc.rawBytes += int64(len(t.RawA) + len(t.RawB))
		}
		rc.writtenBytes += w.Bytes()
		man, err := w.Commit()
		rec.end(sp)
		rec.end(root)
		if err != nil {
			return rc, err
		}
		ids[i] = man.ID
	}
	for i := 0; i < storeOpens; i++ {
		sp := rec.begin("store.open", b.op(), -1)
		_, err := store.Open(dataDir)
		rec.end(sp)
		if err != nil {
			return rc, err
		}
	}

	// Read every tile back, then filter and refine it the way one pipeline
	// task does: R-tree build and join, then PixelBox on the simulated GPU
	// and on the CPU, whose areas must agree.
	dev := gpu.NewDevice(gpu.GTX580())
	tasks := make([][]pipeline.PolyTask, len(data))
	for i, id := range ids {
		op := b.op()
		root := rec.begin("bench.tiles", op, -1)
		ds, err := st.OpenDataset(id)
		if err != nil {
			return rc, err
		}
		for n, ti := range ds.Manifest().Tiles {
			sp := rec.begin("store.read_tile", op, root)
			a, bb, err := ds.ReadTile(n)
			rec.end(sp)
			if err != nil {
				return rc, err
			}
			tasks[i] = append(tasks[i], pipeline.PolyTask{Image: ti.Image, Tile: ti.Tile, A: a, B: bb})
			b.refine(op, root, dev, a, bb, &rc)
		}
		rec.end(root)
	}

	// The pipeline as one shard runs it, checked against the CPU oracle.
	for i := range data {
		op := b.op()
		sp := rec.begin("pipeline.run", op, -1)
		res, err := pipeline.RunParsed(tasks[i], daemonPipeline(gpu.NewDevice(gpu.GTX580())))
		rec.end(sp)
		if err != nil {
			return rc, err
		}
		b.checkResult("replayed pipeline over "+data[i].Name, res, refs[i])
		rc.launches += res.Stats.KernelLaunches
		rc.pairsFiltered += int64(res.Stats.PairsFiltered)
		rc.pairsOnGPU += int64(res.Stats.PairsOnGPU)
		rc.migrated += res.Stats.TasksToCPU + res.Stats.TasksToGPU
	}

	sc := sched.New(daemonSched())
	defer sc.Close()
	if err := b.replayJobs(ctx, sc, st, ids, data, refs); err != nil {
		return rc, err
	}
	if err := b.replayCompare(ctx, sc, st, ids, &rc); err != nil {
		return rc, err
	}
	return rc, nil
}

// refine runs one tile's filter and refine steps.
func (b *bench) refine(op, parent int, dev *gpu.Device, a, bb []*geom.Polygon, rc *replayCounts) {
	rec := b.rec
	sp := rec.begin("rtree.build", op, parent)
	ta, tb := rtree.Build(entries(a), rtree.Options{}), rtree.Build(entries(bb), rtree.Options{})
	rec.end(sp)
	sp = rec.begin("rtree.join", op, parent)
	joined, ss := rtree.Join(ta, tb, nil)
	rec.end(sp)
	rc.candidates += int64(len(joined))
	rc.nodesVisited += int64(ss.NodesVisited)
	pairs := make([]pixelbox.Pair, len(joined))
	for k, pr := range joined {
		pairs[k] = pixelbox.Pair{P: a[pr.A], Q: bb[pr.B]}
	}
	sp = rec.begin("pixelbox.gpu", op, parent)
	gres, launch, xfer := pixelbox.RunGPU(dev, pairs, pixelbox.Config{})
	rec.end(sp)
	sp = rec.begin("pixelbox.cpu", op, parent)
	cres := pixelbox.RunCPUParallel(pairs, pixelbox.CPUConfig{})
	rec.end(sp)
	rc.kernelPairs += int64(len(pairs))
	rc.deviceSeconds += launch.DeviceSeconds + xfer
	if !slices.Equal(gres, cres) {
		b.fail("replayed PixelBox: simulated-GPU and CPU areas differ")
	}
}

func entries(ps []*geom.Polygon) []rtree.Entry {
	out := make([]rtree.Entry, len(ps))
	for i, p := range ps {
		out[i] = rtree.Entry{MBR: p.MBR(), ID: int32(i)}
	}
	return out
}

// checkResult compares an in-process result with its reference bit for bit.
func (b *bench) checkResult(what string, got, ref pipeline.Result) {
	b.attempted.Add(1)
	if got.Similarity != ref.Similarity || got.Intersecting != ref.Intersecting || got.Candidates != ref.Candidates {
		b.fail("%s: similarity %v (%d/%d), reference %v (%d/%d)", what,
			got.Similarity, got.Intersecting, got.Candidates, ref.Similarity, ref.Intersecting, ref.Candidates)
	}
}

// replayJobs submits stored-dataset jobs through the daemon's scheduler
// configuration with as many concurrent submitters as the workload has
// clients, each waiting for its job before submitting the next.
func (b *bench) replayJobs(ctx context.Context, sc *sched.Scheduler, st *store.Store,
	ids []string, data []dataset, refs []pipeline.Result) error {
	var wg sync.WaitGroup
	errs := make([]error, b.clients)
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range ids {
				i := (k + c) % len(ids)
				ds, err := st.OpenDataset(ids[i])
				if err != nil {
					errs[c] = err
					return
				}
				id, err := sc.SubmitJob(ds.Source(), sched.JobOpts{Name: data[i].Name})
				if err != nil {
					errs[c] = err
					return
				}
				js, err := sc.Wait(ctx, id)
				if err != nil {
					errs[c] = err
					return
				}
				if js.State != sched.Done {
					b.attempted.Add(1)
					b.fail("replayed job over %s ended %s: %s", data[i].Name, js.State, js.Error)
					continue
				}
				op := b.op()
				job := b.rec.add("sched.job", op, -1, js.Submitted, js.Finished)
				b.rec.add("sched.queue", op, job, js.Submitted, js.Started)
				b.rec.add("sched.run", op, job, js.Started, js.Finished)
				b.checkResult("replayed job over "+data[i].Name, js.Report, refs[i])
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// replayCompare times the matrix planner's calls over every ordered pair,
// then runs one top_k matrix through a compare.Manager on the scheduler.
func (b *bench) replayCompare(ctx context.Context, sc *sched.Scheduler, st *store.Store, ids []string, rc *replayCounts) error {
	rec := b.rec
	for i := range ids {
		for j := range ids {
			if i == j {
				continue
			}
			manA, _ := st.Get(ids[i])
			manB, _ := st.Get(ids[j])
			op := b.op()
			sp := rec.begin("compare.match", op, -1)
			compare.MatchManifests(manA, manB)
			rec.end(sp)
			sp = rec.begin("compare.bound", op, -1)
			_, err := compare.BoundPair(st, ids[i], ids[j])
			rec.end(sp)
			if err != nil {
				return err
			}
		}
	}

	op := b.op()
	root := rec.begin("compare.matrix", op, -1)
	m := compare.NewManager(compare.ManagerConfig{
		Scheduler: sc,
		Submit: func(idA, idB, _ string) (compare.SubmitOutcome, error) {
			sp := rec.begin("sched.submit", op, root)
			defer rec.end(sp)
			name, src, match, _, err := compare.OpenPair(st, idA, idB)
			if err != nil {
				return compare.SubmitOutcome{}, err
			}
			id, err := sc.SubmitSource(name, src)
			if err != nil {
				return compare.SubmitOutcome{}, err
			}
			return compare.SubmitOutcome{JobID: id, Tiles: len(match.Pairs),
				UnmatchedA: len(match.OnlyA), UnmatchedB: len(match.OnlyB)}, nil
		},
		Bound: func(idA, idB string) (compare.CellBound, error) {
			sp := rec.begin("compare.bound", op, root)
			defer rec.end(sp)
			return compare.BoundPair(st, idA, idB)
		},
	})
	defer m.Close()
	run, err := m.StartSpec(compare.RunSpec{Name: "replay", Datasets: ids, TopK: matrixTopK}, nil)
	if err != nil {
		return err
	}
	select {
	case <-run.Done():
	case <-ctx.Done():
		return fmt.Errorf("replayed matrix: %w", ctx.Err())
	}
	rec.end(root)
	mst := run.Status()
	b.attempted.Add(1)
	if mst.State != compare.RunDone {
		b.fail("replayed matrix ended %s", mst.State)
	}
	rc.plannedCells, rc.exactCells = mst.PlannedCells, mst.ExactCells
	return nil
}
