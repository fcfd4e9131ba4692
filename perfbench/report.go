package main

import (
	"fmt"
	"math"
	"sort"
)

// End-to-end metric names: what an analyst using sccgd sees, HTTP in and
// report out. Every workload reports all of them; "op" is the workload's
// timed operation (a job, an upload, a cold matrix).
const (
	mSetup       = "setup_s"
	mOpP50       = "op_p50_ms"
	mOpTail      = "op_tail_ms"
	mInputRate   = "input_mb_per_s"
	mPeakRSS     = "peak_rss_mb"
	mStoredRatio = "stored_bytes_per_input_byte"
)

// endToEnd derives the end-to-end metrics of an untraced run.
func (b *bench) endToEnd(m map[string]metric) {
	s := summarize(b.lat)
	m[mSetup] = metric{finite(median(b.setup)), "s"}
	m[mOpP50] = metric{finite(s.P50), "ms"}
	m[mOpTail] = metric{finite(s.Tail), "ms"}
	m[mInputRate] = metric{float64(b.covered) / 1e6 / b.wall.Seconds(), "MB/s"}
	m[mPeakRSS] = metric{b.peakRSS, "MiB"}
	m[mStoredRatio] = metric{finite(float64(b.storedBytes) / float64(b.inputBytes)), "B/B"}
}

// sampleCounts gives each end-to-end metric's sample count for the report.
func (b *bench) sampleCounts() map[string]string {
	s := summarize(b.lat)
	tail := fmt.Sprintf("n=%d p%d", s.N, s.TailPct)
	if s.TailPct == 0 {
		tail = fmt.Sprintf("n=%d (too few samples for a tail: the median)", s.N)
	}
	return map[string]string{
		mSetup:       fmt.Sprintf("n=%d", len(b.setup)),
		mOpP50:       fmt.Sprintf("n=%d", s.N),
		mOpTail:      tail,
		mInputRate:   fmt.Sprintf("n=%d over %.3fs", s.N, b.wall.Seconds()),
		mPeakRSS:     "n=1 (VmHWM at the end of the run)",
		mStoredRatio: fmt.Sprintf("%d of %d bytes", b.storedBytes, b.inputBytes),
	}
}

// reportLines prints metrics sorted by name, each with its unit and, when
// known, its sample count.
func reportLines(m map[string]metric, counts map[string]string) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		l := fmt.Sprintf("%-36s %14.6g %-14s", n, m[n].Value, m[n].Unit)
		if c := counts[n]; c != "" {
			l += " " + c
		}
		out = append(out, l)
	}
	return out
}

// line formats one workload-specific figure.
func line(name string, v float64, unit string, n int) string {
	return fmt.Sprintf("%-36s %14.6g %-14s n=%d", name, v, unit, n)
}

// tailLine formats a series' tail under the percentile it supports.
func tailLine(prefix string, s summary, unit string) string {
	if s.TailPct == 0 {
		return fmt.Sprintf("%-36s %14s %-14s n=%d", prefix+"_tail", "-", unit, s.N)
	}
	return line(fmt.Sprintf("%s_p%d_%s", prefix, s.TailPct, unit), s.Tail, unit, s.N)
}

// finite replaces NaN (an empty series) with 0 so the result stays JSON.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
