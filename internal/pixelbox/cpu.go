package pixelbox

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// CPUConfig tunes the CPU port of PixelBox (paper §4.2: "we have ported the
// PixelBox algorithms to CPUs, and parallelized its execution with multiple
// worker threads").
type CPUConfig struct {
	// Threshold is the pixelization threshold in pixels; boxes at or below
	// it are counted pixel by pixel. The CPU port refines boxes with a
	// quad split (there is no thread block to feed), so a smaller
	// threshold than the GPU's n²/2 works best. Defaults to 64.
	Threshold int
	// Workers is the number of parallel workers for RunCPUParallel;
	// defaults to GOMAXPROCS.
	Workers int
}

func (c CPUConfig) normalized() CPUConfig {
	if c.Threshold <= 0 {
		c.Threshold = 64
	}
	if c.Threshold < 2 {
		c.Threshold = 2
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// RunCPU computes the areas of intersection and union for all pairs on a
// single core: the PixelBox-CPU-S baseline of Fig. 7.
func RunCPU(pairs []Pair, cfg CPUConfig) []AreaResult {
	cfg = cfg.normalized()
	results := make([]AreaResult, len(pairs))
	for i, pr := range pairs {
		results[i] = cpuPair(pr, cfg)
	}
	return results
}

// RunCPUParallel computes areas with cfg.Workers parallel workers pulling
// pairs off a shared atomic cursor (dynamic scheduling in the spirit of the
// paper's work-stealing TBB parallelisation).
func RunCPUParallel(pairs []Pair, cfg CPUConfig) []AreaResult {
	cfg = cfg.normalized()
	results := make([]AreaResult, len(pairs))
	if len(pairs) == 0 {
		return results
	}
	workers := cfg.Workers
	if workers > len(pairs) {
		workers = len(pairs)
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1) - 1
				if i >= int64(len(pairs)) {
					return
				}
				results[i] = cpuPair(pairs[i], cfg)
			}
		}()
	}
	wg.Wait()
	return results
}

// cpuPair computes one pair with the sampling-box + pixelization scheme and
// indirect union.
func cpuPair(pr Pair, cfg CPUConfig) AreaResult {
	p, q := pr.P, pr.Q
	window := p.MBR().Intersection(q.MBR())
	res := AreaResult{}
	if window.IsEmpty() {
		res.Union = p.Area() + q.Area()
		return res
	}
	inter := refine(p, q, window, int64(cfg.Threshold))
	res.Intersection = inter
	res.Union = p.Area() + q.Area() - inter
	return res
}

// refine recursively classifies a box against both polygons (Lemma 1),
// quad-splitting hovering boxes until they fall below the pixelization
// threshold.
func refine(p, q *geom.Polygon, box geom.MBR, threshold int64) int64 {
	φ1 := p.BoxPosition(box)
	if φ1 == geom.BoxOutside {
		return 0
	}
	φ2 := q.BoxPosition(box)
	if φ2 == geom.BoxOutside {
		return 0
	}
	if φ1 == geom.BoxInside && φ2 == geom.BoxInside {
		return box.Pixels()
	}
	if box.Pixels() <= threshold || (box.Width() == 1 && box.Height() == 1) {
		inter, _ := countBox(p, q, box, false)
		return inter
	}
	midX := box.MinX + box.Width()/2
	midY := box.MinY + box.Height()/2
	var total int64
	quads := [4]geom.MBR{
		{MinX: box.MinX, MinY: box.MinY, MaxX: midX, MaxY: midY},
		{MinX: midX, MinY: box.MinY, MaxX: box.MaxX, MaxY: midY},
		{MinX: box.MinX, MinY: midY, MaxX: midX, MaxY: box.MaxY},
		{MinX: midX, MinY: midY, MaxX: box.MaxX, MaxY: box.MaxY},
	}
	for _, qd := range quads {
		if !qd.IsEmpty() {
			total += refine(p, q, qd, threshold)
		}
	}
	return total
}
