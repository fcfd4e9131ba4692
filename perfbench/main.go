// Command perfbench is the repository's end-to-end benchmark. It starts the
// real sccgd daemon as a child process on a loopback port, drives it over
// HTTP with one workload, checks every answer against an in-process oracle,
// and prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload cross_cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the same HTTP workload runs with every other
// operation traced (client-side spans around each HTTP call), and then the
// workload's inputs are replayed in-process through the public entry points
// of each layer the daemon links, one span per call; the metrics are the
// per-layer ones derived from those spans, plus the tracing overhead.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workloadClients is each workload's number of client goroutines issuing
// HTTP requests; the benchmark refuses to run with more than nproc.
var workloadClients = map[string]int{
	"cross_cold": 2,
	"ingest":     1,
	"matrix":     1,
}

// setupRounds is how many times a run sets the daemon up; setup_s is the
// median, and the last set-up serves the workload.
const setupRounds = 9

// runDeadline keeps a run inside the 180s a run may take, whatever hangs.
const runDeadline = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	sccgd    string
	workdir  string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// facts describe the host and the configuration a result was measured on.
type facts struct {
	Workload       string   `json:"workload"`
	Seed           int64    `json:"seed"`
	Seconds        int      `json:"seconds"`
	Trace          bool     `json:"trace"`
	Clients        int      `json:"clients"`
	NProc          int      `json:"nproc"`
	GOMAXPROCS     int      `json:"gomaxprocs"`
	CPUModel       string   `json:"cpu_model"`
	GoVersion      string   `json:"go_version"`
	DaemonFlags    []string `json:"daemon_flags"`
	PollIntervalMS float64  `json:"poll_interval_ms"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: cross_cold, ingest or matrix")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	fs.StringVar(&o.sccgd, "sccgd", "", "path of the sccgd binary to benchmark")
	fs.StringVar(&o.workdir, "workdir", "", "directory for the daemon's data dirs and run records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	clients, ok := workloadClients[o.workload]
	switch {
	case !ok:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", o.workload)
		return 2
	case trace != 0 && trace != 1:
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case o.seconds < 1:
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	case o.sccgd == "" || o.workdir == "":
		fmt.Fprintln(os.Stderr, "perfbench: -sccgd and -workdir are required (run.sh sets them)")
		return 2
	}
	f := facts{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Clients: clients, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), DaemonFlags: daemonFlags,
		PollIntervalMS: float64(pollInterval) / float64(time.Millisecond),
	}
	if clients > f.NProc {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s needs %d client goroutines but nproc is %d; refusing to run\n",
			o.workload, clients, f.NProc)
		return 2
	}
	dir := filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d-trace%d-%d", o.workload, o.seed, trace, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	b := &bench{opts: o, dir: dir, clients: clients}
	if o.trace {
		b.rec = newRecorder()
	}
	res, lines, err := b.run(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		for _, p := range b.problemList() {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
		}
		return 1
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	for _, p := range b.problemList() {
		fmt.Println("check failed:", p)
	}
	fj, _ := json.Marshal(f)
	fmt.Println("facts", string(fj))
	rj, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	record := map[string]any{"facts": f, "report": lines, "problems": b.problemList(), "result": res}
	if rb, err := json.MarshalIndent(record, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(dir, "result.json"), rb, 0o644) // a record for humans; the run stands without it
	}
	fmt.Println(string(rj))
	if !res.Correct {
		return 1
	}
	return 0
}

// cpuModel returns the host CPU's model name, "unknown" when unreadable.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// bench is one benchmark run.
type bench struct {
	opts    options
	dir     string
	clients int
	// rec holds the run's spans in trace mode; nil otherwise.
	rec *recorder
	d   *daemon
	cl  *client

	nextOp    atomic.Int64
	attempted atomic.Int64
	failed    atomic.Int64

	mu       sync.Mutex
	problems []string
	// setup holds each set-up's seconds.
	setup []float64
	// lat and tracedLat are the workload operation's latencies (ms) in the
	// timed window, untraced and traced.
	lat, tracedLat []float64
	// wall is the timed window's length, until its last operation ended.
	wall time.Duration
	// covered is the polygon text the timed operations covered, in bytes.
	covered int64
	// inputBytes and storedBytes are the polygon text the daemon accepted
	// and the dataset bytes it stored for it, over the run's last set-up
	// and the timed window.
	inputBytes, storedBytes int64
	peakRSS                 float64
}

func (b *bench) op() int { return int(b.nextOp.Add(1)) }

// dataDir is the daemon's data dir in set-up round r.
func (b *bench) dataDir(r int) string { return filepath.Join(b.dir, fmt.Sprintf("data-%d", r)) }

// fail counts one failed operation or wrong answer.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func (b *bench) problemList() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.problems...)
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// run executes the workload and derives the result.
func (b *bench) run(ctx context.Context) (result, []string, error) {
	var w workloadRun
	switch b.opts.workload {
	case "cross_cold":
		w = &crossCold{}
	case "ingest":
		w = &ingest{}
	case "matrix":
		w = &matrix{}
	}
	if err := w.prepare(b); err != nil {
		return result{}, nil, err
	}
	defer func() {
		for i := 0; i < setupRounds; i++ {
			os.RemoveAll(b.dataDir(i))
		}
		os.RemoveAll(filepath.Join(b.dir, "replay-store"))
	}()
	ids, err := b.setUp(ctx, w.preload())
	if b.d != nil {
		defer b.d.stop()
		defer b.cl.close()
	}
	if err != nil {
		return result{}, nil, err
	}
	b.closedLoop(w.timedOp(ctx, b, ids))
	w.verify(ctx, b, ids)
	if b.peakRSS, err = b.d.peakRSSMB(); err != nil {
		return result{}, nil, fmt.Errorf("read daemon peak RSS: %w", err)
	}
	if b.opts.trace {
		if err := b.probe(ctx, w, ids); err != nil {
			return result{}, nil, err
		}
	}
	b.d.stop()

	res := result{Metrics: make(map[string]metric)}
	var lines []string
	if b.opts.trace {
		rc, err := b.replay(ctx, w.replayData(), b.dataDir(setupRounds-1))
		if err != nil {
			return result{}, nil, fmt.Errorf("replay: %w", err)
		}
		res.Metrics = b.layerMetrics(rc)
		lines = reportLines(res.Metrics, nil)
	} else {
		b.endToEnd(res.Metrics)
		lines = append(reportLines(res.Metrics, b.sampleCounts()), w.report(b)...)
	}
	res.Attempted, res.Failed = b.attempted.Load(), b.failed.Load()
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, lines, nil
}

// workloadRun is one workload: its inputs, its timed operation, and its
// after-window checks.
type workloadRun interface {
	// prepare generates the inputs and the oracle's references, untimed.
	prepare(b *bench) error
	// preload returns the datasets every set-up stores.
	preload() []dataset
	// timedOp returns the operation the clients repeat in the timed window.
	timedOp(ctx context.Context, b *bench, ids []string) timedOp
	// verify runs the checks that need the finished window, untimed.
	verify(ctx context.Context, b *bench, ids []string)
	// report returns the workload's own figures under the names METRICS.md
	// defines, one line each.
	report(b *bench) []string
	// replayData returns the datasets the traced run replays in-process.
	replayData() []dataset
	// probes returns jobs the traced run submits over HTTP after the window,
	// so every server route has client spans on every workload.
	probes(ids []string) ([]probeJob, error)
}

// timedOp performs one operation, traced when rec is non-nil; it returns
// the latency and the polygon text it covered, or ok=false after counting a
// failure.
type timedOp func(rec *recorder) (ms float64, covered int64, ok bool)

// closedLoop runs the workload's clients back to back until the window
// ends; an operation started before the end runs to completion. In trace
// mode every second operation of a client is traced.
func (b *bench) closedLoop(op timedOp) {
	start := time.Now()
	deadline := start.Add(time.Duration(b.opts.seconds) * time.Second)
	var wg sync.WaitGroup
	for range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				var rec *recorder
				if k%2 == 1 {
					rec = b.rec
				}
				b.attempted.Add(1)
				ms, covered, ok := op(rec)
				if !ok {
					continue
				}
				b.mu.Lock()
				if rec != nil {
					b.tracedLat = append(b.tracedLat, ms)
				} else {
					b.lat = append(b.lat, ms)
				}
				b.covered += covered
				b.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	b.wall = time.Since(start)
}

// setUp starts the daemon over a fresh data dir and stores the preload
// datasets, setupRounds times; setup_s is timed from process start until
// /healthz answers and every preload dataset is stored. The last daemon
// stays up for the workload; it returns the preload datasets' IDs.
func (b *bench) setUp(ctx context.Context, preload []dataset) ([]string, error) {
	bodies := make([][]byte, len(preload))
	for i := range preload {
		body, err := preload[i].putBody()
		if err != nil {
			return nil, err
		}
		bodies[i] = body
	}
	var ids []string
	for round := 0; round < setupRounds; round++ {
		last := round == setupRounds-1
		dataDir := b.dataDir(round)
		start := time.Now()
		d, err := startDaemon(b.opts.sccgd, dataDir)
		if err != nil {
			return nil, err
		}
		b.d, b.cl = d, newClient(d.base, b.clients)
		if err := b.cl.waitHealthy(ctx); err != nil {
			return nil, fmt.Errorf("%w\n%s", err, d.tail())
		}
		ids = ids[:0]
		var stored, input int64
		for i, ds := range preload {
			resp, err := b.cl.putDataset(ctx, nil, 0, ds.Name, bodies[i])
			if err != nil {
				return nil, fmt.Errorf("preload %s: %w", ds.Name, err)
			}
			if err := checkStored(len(ds.Tiles), ds.polygons(), resp); err != nil {
				return nil, fmt.Errorf("preload %s: %w", ds.Name, err)
			}
			ids = append(ids, resp.ID)
			stored += resp.SegmentBytes
			input += ds.rawBytes()
		}
		b.setup = append(b.setup, time.Since(start).Seconds())
		if last {
			b.storedBytes, b.inputBytes = stored, input
			break
		}
		b.cl.close()
		d.stop()
		b.d = nil
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// checkStored checks an ingest answer against the tile and polygon counts
// sent.
func checkStored(tiles int, polygons int64, resp datasetResponse) error {
	if resp.Tiles != tiles || resp.Polygons != polygons || resp.SegmentBytes <= 0 {
		return fmt.Errorf("stored %d tiles, %d polygons, %d bytes; sent %d tiles, %d polygons",
			resp.Tiles, resp.Polygons, resp.SegmentBytes, tiles, polygons)
	}
	return nil
}
