// Command bench regenerates every table and figure of the paper's
// evaluation section (§5) and prints the rows in the paper's layout.
//
//	bench                 # everything
//	bench -only fig8      # a single experiment (fig2|fig7|fig8|fig9|fig10|table1|fig11|fig12|hybrid)
//	bench -only hybrid -gpus 2 -cpu-aggs 4   # hybrid co-execution scaling
//	bench -json           # machine-readable run record on stdout (see README)
//	bench -json -short    # reduced workload, for CI smoke and quick checks
//
// The -json record is the unit of the repo's benchmark trajectory: one
// BENCH_PR<n>.json per landed PR, committed at the root, lets throughput
// regressions be spotted by diffing records instead of rerunning old
// revisions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/gpu"
	"repro/internal/metrics"
	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/pixelbox"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bench: ")
	only := flag.String("only", "", "run a single experiment")
	gpus := flag.Int("gpus", 2, "hybrid experiment: simulated GPU count")
	cpuAggs := flag.Int("cpu-aggs", 4, "hybrid experiment: PixelBox-CPU aggregator count")
	jsonOut := flag.Bool("json", false, "emit a machine-readable run record to stdout instead of tables")
	short := flag.Bool("short", false, "with -json: reduced workload for smoke runs")
	flag.Parse()

	if *jsonOut {
		rec, err := benchRecord(*short, *gpus, *cpuAggs)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rec); err != nil {
			log.Fatal(err)
		}
		return
	}

	want := func(name string) bool {
		return *only == "" || strings.EqualFold(*only, name)
	}

	rep := pathology.Generate(pathology.Representative())
	// The subset workload of §5.2-5.4: pairs filtered from two
	// representative tiles (the paper uses 15724 pairs from two
	// representative polygon files).
	subsetPairs := subset(rep, 3)

	if want("fig2") {
		runFig2(rep)
	}
	if want("fig7") {
		runFig7(rep)
	}
	if want("fig8") {
		runFig8(subsetPairs)
	}
	if want("fig9") {
		runFig9(subsetPairs)
	}
	if want("fig10") {
		runFig10(subsetPairs)
	}
	var cal experiments.Calibration
	if want("table1") || want("fig11") {
		cal = experiments.Calibrate(rep)
	}
	if want("table1") {
		runTable1(rep, cal)
	}
	if want("fig11") {
		runFig11(cal)
	}
	if want("fig12") {
		runFig12()
	}
	if want("hybrid") {
		runHybrid(rep, *gpus, *cpuAggs)
	}
}

// runRecord is the machine-readable benchmark record emitted by -json: one
// headline measurement set, stable across PRs, so committed BENCH_PR<n>.json
// files form a comparable trajectory. Schema changes bump the version.
type runRecord struct {
	Schema      string             `json:"schema"`
	CreatedAt   string             `json:"created_at"`
	GoVersion   string             `json:"go_version"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Short       bool               `json:"short"`
	Dataset     string             `json:"dataset"`
	Tiles       int                `json:"tiles"`
	Experiments []experimentRecord `json:"experiments"`
}

// experimentRecord is one timed configuration inside a run record. Values
// holds the experiment's headline scalars (pairs/sec, similarity, ...) keyed
// by stable names.
type experimentRecord struct {
	Name     string             `json:"name"`
	WallSecs float64            `json:"wall_secs"`
	Values   map[string]float64 `json:"values"`
}

const benchSchema = "sccg-bench/1"

// benchRecord times the pipeline's three canonical configurations (GPU-only,
// CPU-only, hybrid work-stealing) over the representative dataset and the
// bare PixelBox kernel over the §5.2 subset pairs. Similarity must be
// bit-identical across pipeline configurations — the record carries it per
// experiment plus a bit_identical flag so a trajectory diff catches both
// performance and correctness drift.
func benchRecord(short bool, gpus, cpuAggs int) (*runRecord, error) {
	spec := pathology.Representative()
	d := pathology.Generate(spec)
	if short && len(d.Pairs) > 4 {
		d.Pairs = d.Pairs[:4]
	}
	rec := &runRecord{
		Schema:     benchSchema,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Short:      short,
		Dataset:    spec.Name,
		Tiles:      len(d.Pairs),
	}
	tasks := pipeline.EncodeDataset(d)

	configs := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"pipeline_gpu", pipeline.Config{Devices: gpu.NewDevices(1, gpu.GTX580())}},
		{"pipeline_cpu", pipeline.Config{}},
		{"pipeline_hybrid", pipeline.Config{
			Devices:        gpu.NewDevices(gpus, gpu.GTX580()),
			CPUAggregators: cpuAggs,
			BatchPairs:     256,
		}},
	}
	var baseSim float64
	identical := 1.0
	for i, c := range configs {
		res, err := pipeline.Run(tasks, c.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		secs := res.Stats.WallTime.Seconds()
		if i == 0 {
			baseSim = res.Similarity
		} else if res.Similarity != baseSim {
			identical = 0
		}
		rec.Experiments = append(rec.Experiments, experimentRecord{
			Name:     c.name,
			WallSecs: secs,
			Values: map[string]float64{
				"pairs_filtered": float64(res.Stats.PairsFiltered),
				"pairs_per_sec":  float64(res.Stats.PairsFiltered) / secs,
				"pairs_gpu":      float64(res.Stats.PairsOnGPU),
				"pairs_cpu":      float64(res.Stats.PairsOnCPU),
				"similarity":     res.Similarity,
			},
		})
	}
	rec.Experiments = append(rec.Experiments, experimentRecord{
		Name:   "pipeline_invariants",
		Values: map[string]float64{"similarity_bit_identical": identical},
	})

	// The bare kernel over the subset workload: PixelBox on the device model
	// vs PixelBox-CPU, no pipeline around them.
	subTiles := 3
	if short {
		subTiles = 2
	}
	pairs := subset(d, subTiles)
	start := time.Now()
	_, _, devSecs := pixelbox.RunGPU(gpu.NewDevice(gpu.GTX580()), pairs, pixelbox.Config{})
	gpuSecs := time.Since(start).Seconds()
	rec.Experiments = append(rec.Experiments, experimentRecord{
		Name:     "kernel_pixelbox_gpu",
		WallSecs: gpuSecs,
		Values: map[string]float64{
			"pairs":          float64(len(pairs)),
			"pairs_per_sec":  float64(len(pairs)) / gpuSecs,
			"device_seconds": devSecs,
		},
	})
	start = time.Now()
	pixelbox.RunCPUParallel(pairs, pixelbox.CPUConfig{})
	cpuSecs := time.Since(start).Seconds()
	rec.Experiments = append(rec.Experiments, experimentRecord{
		Name:     "kernel_pixelbox_cpu",
		WallSecs: cpuSecs,
		Values: map[string]float64{
			"pairs":         float64(len(pairs)),
			"pairs_per_sec": float64(len(pairs)) / cpuSecs,
		},
	})

	// Progressive matrix execution over a skewed corpus: how much exact work
	// the plan-phase bounds avoid, with exactness cross-checked per cell.
	prog, err := progressiveRecords(short)
	if err != nil {
		return nil, fmt.Errorf("matrix experiment: %w", err)
	}
	rec.Experiments = append(rec.Experiments, prog...)
	clus, err := clusterRecords(short)
	if err != nil {
		return nil, fmt.Errorf("cluster experiment: %w", err)
	}
	rec.Experiments = append(rec.Experiments, clus...)
	ovh, err := traceOverheadRecords(short)
	if err != nil {
		return nil, fmt.Errorf("trace overhead experiment: %w", err)
	}
	rec.Experiments = append(rec.Experiments, ovh...)
	// Interactive isolation under a batch flood: the multi-tenant QoS
	// scheduler's headline guarantee (PR 10 acceptance bound: p99 ratio < 5).
	qos, err := qosIsolationRecords(short)
	if err != nil {
		return nil, fmt.Errorf("qos experiment: %w", err)
	}
	rec.Experiments = append(rec.Experiments, qos...)
	return rec, nil
}

func subset(d *pathology.Dataset, tiles int) []pixelbox.Pair {
	if tiles > len(d.Pairs) {
		tiles = len(d.Pairs)
	}
	sub := *d
	sub.Pairs = d.Pairs[:tiles]
	return experiments.FilteredPairs(&sub)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

func runFig2(d *pathology.Dataset) {
	header("Fig. 2 — SDBMS query-time decomposition (single core)")
	res, err := experiments.Fig2(d)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Render())
	fmt.Println("\npaper: unoptimized splits across ST_Intersects/intersection/union;")
	fmt.Println("       optimized spends ~90% in Area_Of_Intersection, <6% in index work")
}

func runFig7(d *pathology.Dataset) {
	header("Fig. 7 — GEOS vs PixelBox-CPU-S vs PixelBox")
	res := experiments.Fig7(d)
	cpuS, gpuBox := res.Speedups()
	t := metrics.NewTable("system", "time", "speedup over GEOS")
	t.AddRow("GEOS (sweep overlay)", fmt.Sprintf("%.3fs", res.GEOSSecs), 1.0)
	t.AddRow("PixelBox-CPU-S", fmt.Sprintf("%.3fs", res.PixelBoxCPUSSecs), cpuS)
	t.AddRow("PixelBox (GTX 580 model)", fmt.Sprintf("%.6fs", res.PixelBoxSecs), gpuBox)
	fmt.Print(t.String())
	fmt.Printf("\n%d polygon pairs; paper: 430s / ~290s / 3.6s (1.48x / >100x)\n", res.Pairs)
}

func runFig8(pairs []pixelbox.Pair) {
	header("Fig. 8 — sampling boxes and indirect union vs pixelization only")
	rows := experiments.Fig8(pairs, 5)
	t := metrics.NewTable("SF", "PixelOnly", "PixelBox-NoSep", "PixelBox", "GEOS ref")
	for _, r := range rows {
		t.AddRow(r.ScaleFactor,
			fmt.Sprintf("%.2fms", r.PixelOnlySecs*1e3),
			fmt.Sprintf("%.2fms", r.NoSepSecs*1e3),
			fmt.Sprintf("%.2fms", r.PixelBoxSecs*1e3),
			fmt.Sprintf("%.1fms", r.SweepSecs*1e3))
	}
	fmt.Print(t.String())
	fmt.Println("\npaper: PixelOnly degrades rapidly with SF; PixelBox stays nearly flat;")
	fmt.Println("       at SF1 boxes already cut ~34%, at SF5 PixelBox beats NoSep by ~73%")
}

func runFig9(pairs []pixelbox.Pair) {
	header("Fig. 9 — implementation optimisation ladder (speedup over NoOpt)")
	rows := experiments.Fig9(pairs, []int{1, 3, 5})
	t := metrics.NewTable("SF", "NoOpt", "NBC", "NBC-UR", "NBC-UR-SM")
	for _, r := range rows {
		nbc, nbcur, nbcursm := r.Speedups()
		t.AddRow(r.ScaleFactor, 1.0, nbc, nbcur, nbcursm)
	}
	fmt.Print(t.String())
	fmt.Println("\npaper: 1.14x total at SF1 rising to 1.30x at SF5; UR and SM dominate NBC")
}

func runFig10(pairs []pixelbox.Pair) {
	header("Fig. 10 — sensitivity to pixelization threshold T (block size 64)")
	thresholds := []int{16, 64, 128, 512, 1024, 2048, 4096, 16384, 65536}
	series := experiments.Fig10(pairs, 64, thresholds, []int{1, 2, 3, 4, 5})
	head := []string{"SF \\ T"}
	for _, T := range thresholds {
		head = append(head, fmt.Sprintf("%d", T))
	}
	t := metrics.NewTable(head...)
	for _, s := range series {
		row := []interface{}{s.ScaleFactor}
		for _, p := range s.Points {
			row = append(row, fmt.Sprintf("%.2f", p.Secs*1e3))
		}
		t.AddRow(row...)
	}
	fmt.Print(t.String())
	for _, s := range series {
		b := s.Best()
		fmt.Printf("SF%d best: T=%d (%.2fms)\n", s.ScaleFactor, b.Threshold, b.Secs*1e3)
	}
	fmt.Println("\npaper: best T in [n²/8, n²] = [512, 4096] for n=64, sub-optimal at the extremes")
}

func runTable1(d *pathology.Dataset, cal experiments.Calibration) {
	header("Table 1 — execution schemes (speedup over PostGIS-S)")
	res, err := experiments.Table1(d, cal)
	if err != nil {
		log.Fatal(err)
	}
	s, m, p := res.Speedups()
	t := metrics.NewTable("scheme", "time", "speedup")
	t.AddRow("PostGIS-S", fmt.Sprintf("%.3fs", res.PostGISSecs), 1.0)
	t.AddRow("NoPipe-S", fmt.Sprintf("%.3fs", res.NoPipeS.Seconds), s)
	t.AddRow("NoPipe-M", fmt.Sprintf("%.3fs", res.NoPipeM.Seconds), m)
	t.AddRow("Pipelined", fmt.Sprintf("%.3fs", res.Pipelined.Seconds), p)
	fmt.Print(t.String())
	fmt.Printf("\nNoPipe-M CPU utilisation: %.0f%% (paper: ~50%%, capped by uncoordinated GPU use)\n",
		res.NoPipeM.CPUUtilisation*100)
	fmt.Println("paper speedups: 1 / 37.07 / 63.64 / 76.02")
}

func runFig11(cal experiments.Calibration) {
	header("Fig. 11 — dynamic task migration benefit")
	rows, err := experiments.Fig11(cal)
	if err != nil {
		log.Fatal(err)
	}
	t := metrics.NewTable("configuration", "norm. throughput", "to GPU", "to CPU")
	for _, r := range rows {
		t.AddRow(r.Config, r.NormThroughput, r.On.MigratedToGPU, r.On.MigratedToCPU)
	}
	fmt.Print(t.String())
	fmt.Println("\npaper: +50% (Config-I), +40% (Config-II), +14% (Config-III, reversed direction)")
}

// runHybrid is the post-paper experiment for the hybrid co-executing
// aggregator: the same dataset aggregated GPU-only, CPU-only, and on the
// hybrid executor pool. Similarity must be bit-identical across all three;
// only throughput moves.
func runHybrid(d *pathology.Dataset, gpus, cpuAggs int) {
	header(fmt.Sprintf("Hybrid co-execution — %d GPU(s) + %d CPU aggregator(s), work-stealing", gpus, cpuAggs))
	tasks := pipeline.EncodeDataset(d)

	devices := func(n int) []*gpu.Device { return gpu.NewDevices(n, gpu.GTX580()) }
	configs := []struct {
		name string
		cfg  pipeline.Config
	}{
		{"GPU-only (1 device)", pipeline.Config{Devices: devices(1)}},
		{"CPU-only", pipeline.Config{}},
		{fmt.Sprintf("hybrid (%dG+%dC)", gpus, cpuAggs),
			pipeline.Config{Devices: devices(gpus), CPUAggregators: cpuAggs, BatchPairs: 256}},
	}

	t := metrics.NewTable("configuration", "wall", "pairs/s", "pairs GPU", "pairs CPU", "J'")
	var base, hybridSecs float64
	var baseSim float64
	identical := true
	for i, c := range configs {
		res, err := pipeline.Run(tasks, c.cfg)
		if err != nil {
			log.Fatal(err)
		}
		secs := res.Stats.WallTime.Seconds()
		if i == 0 {
			base, baseSim = secs, res.Similarity
		} else if res.Similarity != baseSim {
			identical = false
		}
		if i == len(configs)-1 {
			hybridSecs = secs
		}
		t.AddRow(c.name, res.Stats.WallTime.Round(time.Microsecond),
			float64(res.Stats.PairsFiltered)/secs,
			res.Stats.PairsOnGPU, res.Stats.PairsOnCPU,
			fmt.Sprintf("%.6f", res.Similarity))
	}
	fmt.Print(t.String())
	fmt.Printf("\nhybrid speedup over GPU-only: %.2fx; similarity bit-identical: %v\n",
		metrics.Speedup(base, hybridSecs), identical)
}

func runFig12() {
	header("Fig. 12 — SCCG vs PostGIS-M over the 18-dataset corpus")
	rows, err := experiments.Fig12(pathology.Corpus())
	if err != nil {
		log.Fatal(err)
	}
	t := metrics.NewTable("dataset", "tiles", "pairs", "PostGIS-M", "SCCG", "speedup", "J'")
	for _, r := range rows {
		t.AddRow(r.Dataset, r.Tiles, r.Pairs,
			fmt.Sprintf("%.3fs", r.PostGISMSecs),
			fmt.Sprintf("%.3fs", r.SCCGSecs),
			r.Speedup,
			fmt.Sprintf("%.3f", r.Similarity))
	}
	fmt.Print(t.String())
	fmt.Printf("\ngeometric mean speedup: %.1fx (paper: >18x, range 13-44x)\n", experiments.Fig12GeoMean(rows))
}
