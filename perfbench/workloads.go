package main

// The three workloads. Each has a closed-loop client mix (which layers it
// stresses is recorded in BENCHMARK.json), an untimed oracle, and a set of
// probe jobs for the traced run.

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pathology"
	"repro/internal/pipeline"
)

// probeJob is a job the traced run submits over HTTP, with its reference.
type probeJob struct {
	label string
	req   jobRequest
	ref   pipeline.Result
}

// cpuReference runs the pipeline in-process on the CPU only: the oracle
// every daemon report must match bit for bit.
func cpuReference(tasks []pipeline.PolyTask) (pipeline.Result, error) {
	return pipeline.RunParsed(tasks, pipeline.Config{})
}

// crossTasks pairs dataset a's set A with dataset b's set B tile by tile, the
// cross job's semantics (both datasets carry the same tile keys).
func crossTasks(a, b dataset) []pipeline.PolyTask {
	out := make([]pipeline.PolyTask, len(a.Tiles))
	for i := range a.Tiles {
		out[i] = pipeline.PolyTask{Image: imageName, Tile: a.Tiles[i].Index, A: a.Tiles[i].A, B: b.Tiles[i].B}
	}
	return out
}

// checkReport compares a daemon report with its reference bit for bit.
func (b *bench) checkReport(what string, got jobReport, ref pipeline.Result) bool {
	if got.Similarity != ref.Similarity || got.Intersecting != ref.Intersecting || got.Candidates != ref.Candidates {
		b.fail("%s: similarity %v (%d/%d), reference %v (%d/%d)", what,
			got.Similarity, got.Intersecting, got.Candidates, ref.Similarity, ref.Intersecting, ref.Candidates)
		return false
	}
	return true
}

// --- cross_cold -----------------------------------------------------------

// crossCold: two closed-loop clients submit uncached jobs round-robin over
// four stored datasets and poll each to its report.
type crossCold struct {
	data  []dataset
	refs  []pipeline.Result
	next  atomic.Int64
	pairs atomic.Int64
}

func (w *crossCold) prepare(b *bench) error {
	w.data = crossDatasets(b.opts.seed)
	w.refs = make([]pipeline.Result, len(w.data))
	for i := range w.data {
		ref, err := cpuReference(w.data[i].polyTasks())
		if err != nil {
			return fmt.Errorf("reference for %s: %w", w.data[i].Name, err)
		}
		w.refs[i] = ref
	}
	return nil
}

func (w *crossCold) preload() []dataset { return w.data }

func (w *crossCold) timedOp(ctx context.Context, b *bench, ids []string) timedOp {
	return func(rec *recorder) (float64, int64, bool) {
		i := int(w.next.Add(1)-1) % len(ids)
		start := time.Now()
		rep, err := b.cl.runJob(ctx, rec, b.op(), jobRequest{DatasetID: ids[i], NoCache: true})
		ms := msSince(start)
		if err != nil {
			b.fail("job over %s: %v", w.data[i].Name, err)
			return 0, 0, false
		}
		if !b.checkReport("job over "+w.data[i].Name, rep, w.refs[i]) {
			return 0, 0, false
		}
		w.pairs.Add(int64(rep.Candidates))
		return ms, w.data[i].rawBytes(), true
	}
}

func (w *crossCold) verify(context.Context, *bench, []string) {}

func (w *crossCold) report(b *bench) []string {
	s := summarize(b.lat)
	return []string{
		line("job_p50_ms", s.P50, "ms", s.N),
		tailLine("job", s, "ms"),
		line("pairs_per_s", float64(w.pairs.Load())/b.wall.Seconds(), "1/s", s.N),
	}
}

func (w *crossCold) replayData() []dataset { return w.data }

func (w *crossCold) probes(ids []string) ([]probeJob, error) {
	return []probeJob{
		{label: "probe job over " + w.data[0].Name, req: jobRequest{DatasetID: ids[0], NoCache: true}, ref: w.refs[0]},
		{label: "probe job over " + w.data[1].Name, req: jobRequest{DatasetID: ids[1], NoCache: true}, ref: w.refs[1]},
	}, nil
}

// --- ingest ---------------------------------------------------------------

// ingest: one closed-loop client uploads datasets whose content is never
// repeated and runs no jobs.
type ingest struct {
	pool []pathology.TilePair
	up   *uploads
	next atomic.Int64
	// uploaded lists the uploads stored in the window, in order.
	mu       sync.Mutex
	uploaded []stored
	seen     map[string]bool
}

// stored is one upload the daemon accepted: its index and content ID.
type stored struct {
	k  int
	id string
}

func (w *ingest) prepare(b *bench) error {
	w.pool = ingestPool(b.opts.seed)
	w.seen = make(map[string]bool)
	up, err := newUploads(w.pool)
	w.up = up
	return err
}

func (w *ingest) preload() []dataset { return nil }

// timedOp uploads the next dataset. Its body is rendered from the upload
// templates before the clock starts.
func (w *ingest) timedOp(ctx context.Context, b *bench, _ []string) timedOp {
	return func(rec *recorder) (float64, int64, bool) {
		k := int(w.next.Add(1) - 1)
		d := w.up.dataset(k)
		body, err := d.putBody()
		if err != nil {
			b.fail("prepare upload %d: %v", k, err)
			return 0, 0, false
		}
		start := time.Now()
		resp, err := b.cl.putDataset(ctx, rec, b.op(), d.Name, body)
		ms := msSince(start)
		if err != nil {
			b.fail("upload %d: %v", k, err)
			return 0, 0, false
		}
		if err := checkStored(len(d.Tiles), w.up.polygons, resp); err != nil {
			b.fail("upload %d: %v", k, err)
			return 0, 0, false
		}
		w.mu.Lock()
		dup := w.seen[resp.ID]
		w.seen[resp.ID] = true
		w.uploaded = append(w.uploaded, stored{k, resp.ID})
		w.mu.Unlock()
		if dup {
			b.fail("upload %d: content ID %s was already stored", k, resp.ID)
			return 0, 0, false
		}
		raw := d.rawBytes()
		b.mu.Lock()
		b.inputBytes += raw
		b.storedBytes += resp.SegmentBytes
		b.mu.Unlock()
		return ms, raw, true
	}
}

// verify reads one tile back from up to eight uploads spread over the
// window and compares its text with the text sent.
func (w *ingest) verify(ctx context.Context, b *bench, _ []string) {
	n := len(w.uploaded)
	for s := 0; s < min(8, n); s++ {
		up := w.uploaded[s*n/min(8, n)]
		k := up.k
		ds := ingestDataset(w.pool, k)
		t := k % len(ds.Tiles)
		b.attempted.Add(1)
		var got tilePayload
		path := fmt.Sprintf("/datasets/%s/tiles/%d", up.id, t)
		if err := b.cl.call(ctx, nil, "server.read_tile", 0, http.MethodGet, path, nil, &got, http.StatusOK); err != nil {
			b.fail("read back upload %d: %v", k, err)
			continue
		}
		if string(got.RawA) != string(ds.Tiles[t].RawA) || string(got.RawB) != string(ds.Tiles[t].RawB) {
			b.fail("read back upload %d tile %d: stored text differs from the text sent", k, t)
		}
	}
}

func (w *ingest) report(b *bench) []string {
	s := summarize(b.lat)
	return []string{
		line("ingest_p50_ms", s.P50, "ms", s.N),
		tailLine("ingest", s, "ms"),
		line("ingest_mb_per_s", float64(b.covered)/1e6/b.wall.Seconds(), "MB/s", s.N),
	}
}

// replayData is the window's first four uploads.
func (w *ingest) replayData() []dataset {
	out := make([]dataset, 4)
	for k := range out {
		out[k] = ingestDataset(w.pool, k)
	}
	return out
}

// probes are jobs over the first two stored uploads, whose references are
// computed here.
func (w *ingest) probes([]string) ([]probeJob, error) {
	var out []probeJob
	for _, up := range w.uploaded[:min(2, len(w.uploaded))] {
		ds := ingestDataset(w.pool, up.k)
		ref, err := cpuReference(ds.polyTasks())
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", ds.Name, err)
		}
		out = append(out, probeJob{label: "probe job over " + ds.Name,
			req: jobRequest{DatasetID: up.id, NoCache: true}, ref: ref})
	}
	return out, nil
}

// --- matrix ---------------------------------------------------------------

// matrix: one closed-loop client repeats a cycle of an untimed DELETE
// /cache, a timed cold top_k=3 matrix, and the same matrix again warm.
type matrix struct {
	data []dataset
	// refs[i][j] is the in-process reference of the cross comparison of
	// dataset i's set A against dataset j's set B, for i < j.
	refs [][]pipeline.Result
	// runs keeps every finished matrix status for the after-window oracle.
	runs []matrixStatus
	// warmMS and exactCells are the untraced cycles' warm latencies and
	// cold exact-cell counts.
	warmMS, exactCells []float64
}

const matrixTopK = 3

func (w *matrix) prepare(b *bench) error {
	w.data = matrixDatasets(b.opts.seed)
	w.refs = make([][]pipeline.Result, len(w.data))
	for i := range w.data {
		w.refs[i] = make([]pipeline.Result, len(w.data))
		for j := i + 1; j < len(w.data); j++ {
			ref, err := cpuReference(crossTasks(w.data[i], w.data[j]))
			if err != nil {
				return fmt.Errorf("reference for %s vs %s: %w", w.data[i].Name, w.data[j].Name, err)
			}
			w.refs[i][j] = ref
		}
	}
	return nil
}

func (w *matrix) preload() []dataset { return w.data }

func (w *matrix) timedOp(ctx context.Context, b *bench, ids []string) timedOp {
	req := matrixRequest{Datasets: ids, TopK: matrixTopK}
	var covered int64
	for i := range w.data {
		covered += w.data[i].rawBytes()
	}
	return func(rec *recorder) (float64, int64, bool) {
		op := b.op()
		if err := b.cl.call(ctx, rec, "server.cache_clear", op, http.MethodDelete, "/cache", nil, nil, http.StatusOK); err != nil {
			b.fail("clear cache: %v", err)
			return 0, 0, false
		}
		start := time.Now()
		cold, err := b.cl.runMatrix(ctx, rec, op, req)
		ms := msSince(start)
		if err != nil {
			b.fail("cold matrix: %v", err)
			return 0, 0, false
		}
		start = time.Now()
		warm, err := b.cl.runMatrix(ctx, rec, op, req)
		warmMS := msSince(start)
		if err != nil {
			b.fail("warm matrix: %v", err)
			return 0, 0, false
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		w.runs = append(w.runs, cold, warm)
		if rec == nil {
			w.warmMS = append(w.warmMS, warmMS)
			w.exactCells = append(w.exactCells, float64(cold.ExactCells))
		}
		return ms, covered, true
	}
}

// verify runs the standalone cross job of every cell, checks it against the
// in-process reference, then checks every matrix answered in the window:
// an exact cell must equal its standalone job bit for bit, and an elided
// cell's bound must be at least the standalone similarity.
func (w *matrix) verify(ctx context.Context, b *bench, ids []string) {
	standalone := make([][]*jobReport, len(ids))
	for i := range ids {
		standalone[i] = make([]*jobReport, len(ids))
		for j := i + 1; j < len(ids); j++ {
			b.attempted.Add(1)
			what := fmt.Sprintf("cross job %s vs %s", w.data[i].Name, w.data[j].Name)
			rep, err := b.cl.runJob(ctx, nil, b.op(), jobRequest{DatasetA: ids[i], DatasetB: ids[j], NoCache: true})
			if err != nil {
				b.fail("%s: %v", what, err)
				continue
			}
			if b.checkReport(what, rep, w.refs[i][j]) {
				standalone[i][j] = &rep
			}
		}
	}
	for r, st := range w.runs {
		b.attempted.Add(1)
		if bad := checkMatrix(st, standalone); bad != "" {
			b.fail("matrix %d (%s): %s", r, st.ID, bad)
		}
	}
}

// checkMatrix checks one matrix's upper-triangle cells against the
// standalone cross jobs; it returns the first discrepancy, "" when none.
func checkMatrix(st matrixStatus, standalone [][]*jobReport) string {
	if len(st.Cells) != len(standalone) {
		return fmt.Sprintf("%d rows, want %d", len(st.Cells), len(standalone))
	}
	for i := range standalone {
		for j := i + 1; j < len(standalone); j++ {
			want := standalone[i][j]
			if want == nil {
				continue // the standalone job itself failed and was counted
			}
			c := st.Cells[i][j]
			switch c.State {
			case "done":
				if c.Similarity != want.Similarity || c.Intersect != want.Intersecting || c.Candidates != want.Candidates {
					return fmt.Sprintf("cell %d,%d: %v (%d/%d), standalone job %v (%d/%d)", i, j,
						c.Similarity, c.Intersect, c.Candidates, want.Similarity, want.Intersecting, want.Candidates)
				}
			case "skipped", "bounded":
				if c.Bound == nil {
					return fmt.Sprintf("cell %d,%d %s without a bound", i, j, c.State)
				}
				if *c.Bound < want.Similarity {
					return fmt.Sprintf("cell %d,%d %s: bound %v below the exact similarity %v", i, j, c.State, *c.Bound, want.Similarity)
				}
			default:
				return fmt.Sprintf("cell %d,%d ended %s: %s", i, j, c.State, c.Error)
			}
		}
	}
	return ""
}

func (w *matrix) report(b *bench) []string {
	cold, warm := summarize(b.lat), summarize(w.warmMS)
	return []string{
		line("matrix_cold_p50_s", cold.P50/1000, "s", cold.N),
		line("matrix_warm_p50_ms", warm.P50, "ms", warm.N),
		line("matrix_exact_cells_p50", median(w.exactCells), "count", cold.N),
	}
}

func (w *matrix) replayData() []dataset { return w.data }

func (w *matrix) probes(ids []string) ([]probeJob, error) {
	return []probeJob{
		{label: "probe cross job 0 vs 1", req: jobRequest{DatasetA: ids[0], DatasetB: ids[1], NoCache: true}, ref: w.refs[0][1]},
		{label: "probe cross job 0 vs 2", req: jobRequest{DatasetA: ids[0], DatasetB: ids[2], NoCache: true}, ref: w.refs[0][2]},
	}, nil
}
