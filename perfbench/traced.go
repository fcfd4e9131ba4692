package main

import (
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"time"
)

// probe submits the workload's probe jobs and one top_k matrix over their
// datasets with tracing on, after the window, so every server route the
// per-layer metrics name has client spans on every workload.
func (b *bench) probe(ctx context.Context, w workloadRun, ids []string) error {
	jobs, err := w.probes(ids)
	if err != nil {
		return err
	}
	var matrixIDs []string
	for _, p := range jobs {
		b.attempted.Add(1)
		rep, err := b.cl.runJob(ctx, b.rec, b.op(), p.req)
		if err != nil {
			b.fail("%s: %v", p.label, err)
			continue
		}
		b.checkReport(p.label, rep, p.ref)
		for _, id := range []string{p.req.DatasetID, p.req.DatasetA, p.req.DatasetB} {
			if id != "" && !slices.Contains(matrixIDs, id) {
				matrixIDs = append(matrixIDs, id)
			}
		}
	}
	if len(matrixIDs) < 2 {
		return fmt.Errorf("probe matrix needs two datasets, have %d", len(matrixIDs))
	}
	b.attempted.Add(1)
	if _, err := b.cl.runMatrix(ctx, b.rec, b.op(), matrixRequest{Datasets: matrixIDs, TopK: matrixTopK}); err != nil {
		b.fail("probe matrix: %v", err)
	}
	return nil
}

// spanSet indexes a run's spans for the per-layer metrics.
type spanSet struct {
	spans []span
	self  []time.Duration
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s spanSet) durations(name string) []float64 {
	var out []float64
	for _, sp := range s.spans {
		if sp.Name == name {
			out = append(out, ms(sp.End-sp.Start))
		}
	}
	return out
}

func (s spanSet) count(name string) int { return len(s.durations(name)) }

func (s spanSet) total(name string) float64 {
	var t float64
	for _, v := range s.durations(name) {
		t += v
	}
	return t
}

// perOpMedian sums each operation's spans of one name and returns the
// median over operations: per-dataset cost of a per-tile call.
func (s spanSet) perOpMedian(name string) float64 {
	sums := map[int]float64{}
	for _, sp := range s.spans {
		if sp.Name == name {
			sums[sp.Op] += ms(sp.End - sp.Start)
		}
	}
	var v []float64
	for _, t := range sums {
		v = append(v, t)
	}
	return median(v)
}

// selfMedian is the median self time of the spans of one name.
func (s spanSet) selfMedian(name string) float64 {
	var v []float64
	for i, sp := range s.spans {
		if sp.Name == name {
			v = append(v, ms(s.self[i]))
		}
	}
	return median(v)
}

// layerSelf is the summed self time of every span of one layer.
func (s spanSet) layerSelf(layer string) float64 {
	var t float64
	for i, sp := range s.spans {
		if sp.layer() == layer {
			t += ms(s.self[i])
		}
	}
	return t
}

// selfLayers are the replayed layers whose summed self time is reported.
var selfLayers = []string{"store", "parser", "rtree", "pixelbox", "pipeline", "sched", "compare"}

// layerMetrics derives the per-layer metrics from the run's spans and the
// replay's counts, and the tracing overhead from the window's traced and
// untraced operations.
func (b *bench) layerMetrics(rc replayCounts) map[string]metric {
	spans := b.rec.snapshot()
	s := spanSet{spans: spans, self: selfTimes(spans)}
	kpairs := float64(rc.kernelPairs) / 1000
	m := map[string]metric{
		"server.submit_ms":      {median(s.durations("server.submit")), "ms"},
		"server.poll_ms":        {median(s.durations("server.poll")), "ms"},
		"server.polls_per_job":  {float64(s.count("server.poll")) / float64(s.count("server.submit")), "count"},
		"server.matrix_post_ms": {median(s.durations("server.matrix_post")), "ms"},
		"server.http_errors":    {float64(b.cl.httpErrors.Load()), "count"},

		"sched.queue_wait_ms": {median(s.durations("sched.queue")), "ms"},
		"sched.run_ms":        {median(s.durations("sched.run")), "ms"},

		"store.ingest_ms":                    {s.selfMedian("store.ingest"), "ms"},
		"store.bytes_written_per_input_byte": {float64(rc.writtenBytes) / float64(rc.rawBytes), "count"},
		"store.read_tile_ms":                 {median(s.durations("store.read_tile")), "ms"},
		"store.open_ms":                      {median(s.durations("store.open")), "ms"},

		"parser.parse_ms_per_mb": {s.total("parser.parse") / (float64(rc.rawBytes) / 1e6), "ms/MB"},

		"rtree.build_ms":            {s.perOpMedian("rtree.build"), "ms"},
		"rtree.join_ms":             {s.perOpMedian("rtree.join"), "ms"},
		"rtree.nodes_per_candidate": {float64(rc.nodesVisited) / float64(rc.candidates), "count"},
		"rtree.candidates":          {float64(rc.candidates), "count"},

		"pixelbox.gpu_host_ms_per_kpair": {s.total("pixelbox.gpu") / kpairs, "ms/kpair"},
		"pixelbox.cpu_ms_per_kpair":      {s.total("pixelbox.cpu") / kpairs, "ms/kpair"},

		"gpu.device_ms_per_kpair": {rc.deviceSeconds * 1000 / kpairs, "model-ms/kpair"},
		"gpu.launches":            {float64(rc.launches), "count"},

		"pipeline.run_ms":         {median(s.durations("pipeline.run")), "ms"},
		"pipeline.gpu_pair_share": {float64(rc.pairsOnGPU) / float64(rc.pairsFiltered), "ratio"},
		"pipeline.tasks_migrated": {float64(rc.migrated), "count"},

		"compare.match_ms":         {median(s.durations("compare.match")), "ms"},
		"compare.bound_ms":         {median(s.durations("compare.bound")), "ms"},
		"compare.exact_cell_ratio": {float64(rc.exactCells) / float64(rc.plannedCells), "ratio"},

		"trace.overhead_op_p50_ms": {median(b.tracedLat) - median(b.lat), "ms"},
	}
	for _, l := range selfLayers {
		m[l+".self_ms"] = metric{s.layerSelf(l), "ms"}
	}
	for k, v := range m {
		m[k] = metric{finite(v.Value), v.Unit}
	}
	if err := writeSpans(filepath.Join(b.dir, "spans.jsonl"), spans); err != nil {
		b.fail("write spans: %v", err)
	}
	return m
}
