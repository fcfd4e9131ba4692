package geom

import (
	"math"
	"math/rand"
	"testing"
)

// pairwiseSimple is the O(e^2) simplicity check checkSimple used before the
// lattice check, kept verbatim as the oracle: every vertex distinct, no two
// collinear edges overlapping, no proper horizontal-vertical crossing.
func pairwiseSimple(p *Polygon) error {
	n := len(p.vertices)
	seen := make(map[Point]struct{}, n)
	for _, v := range p.vertices {
		if _, dup := seen[v]; dup {
			return ErrRepeatedVertex
		}
		seen[v] = struct{}{}
	}
	hs := p.HorizontalEdges()
	vs := p.VerticalEdges()
	for i := 0; i < len(hs); i++ {
		for j := i + 1; j < len(hs); j++ {
			if hs[i].Y == hs[j].Y && hs[i].X1 < hs[j].X2 && hs[j].X1 < hs[i].X2 {
				return ErrSelfIntersecting
			}
		}
	}
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if vs[i].X == vs[j].X && vs[i].Y1 < vs[j].Y2 && vs[j].Y1 < vs[i].Y2 {
				return ErrSelfIntersecting
			}
		}
	}
	for _, h := range hs {
		for _, v := range vs {
			if h.X1 < v.X && v.X < h.X2 && v.Y1 < h.Y && h.Y < v.Y2 {
				return ErrSelfIntersecting
			}
		}
	}
	return nil
}

// randomLoop returns a random closed loop of 2k vertices whose edges
// alternate horizontal and vertical and have non-zero length: vertex 2i is
// (xs[i], ys[i]) and vertex 2i+1 is (xs[i+1], ys[i]). Small coordinate spans
// make most loops self-intersect; rectangles (k=2) are always simple.
func randomLoop(rng *rand.Rand, k int, span int32) []Point {
	pick := func(prev int32) int32 {
		for {
			if v := rng.Int31n(span); v != prev {
				return v
			}
		}
	}
	xs := make([]int32, k)
	ys := make([]int32, k)
	xs[0], ys[0] = rng.Int31n(span), rng.Int31n(span)
	for i := 1; i < k; i++ {
		xs[i], ys[i] = pick(xs[i-1]), pick(ys[i-1])
	}
	// The loop closes through (xs[0], ys[k-1]) -> (xs[0], ys[0]) and
	// (xs[k-1], ys[k-1]) -> (xs[0], ys[k-1]): both need distinct ends.
	for xs[k-1] == xs[0] {
		xs[k-1] = pick(xs[k-2])
	}
	for ys[k-1] == ys[0] {
		ys[k-1] = pick(ys[k-2])
	}
	vs := make([]Point, 0, 2*k)
	for i := 0; i < k; i++ {
		vs = append(vs, Point{xs[i], ys[i]}, Point{xs[(i+1)%k], ys[i]})
	}
	return vs
}

// loopPolygon wraps a vertex loop as a Polygon without validating it, so
// checkSimple can be driven directly on rejected shapes as well.
func loopPolygon(vs []Point) *Polygon {
	m := EmptyMBR()
	for _, v := range vs {
		m = m.Extend(v)
	}
	return &Polygon{vertices: vs, mbr: m}
}

// TestCheckSimpleMatchesPairwise drives the lattice check and the dispatch
// in checkSimple against the pairwise oracle on random alternating loops:
// small and large spans, and loops shifted next to the int32 limits.
func TestCheckSimpleMatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(0x51AB1E))
	iters := 2_000_000
	if testing.Short() {
		iters = 100_000
	}
	offsets := []Point{
		{0, 0},
		{math.MaxInt32 - 300, math.MaxInt32 - 300},
		{math.MinInt32, math.MinInt32},
		{math.MinInt32, math.MaxInt32 - 300},
		{-150, -150},
	}
	verdicts := map[error]int{}
	for it := 0; it < iters; it++ {
		k := 2 + rng.Intn(6)
		span := int32(3 + rng.Intn(2*k+3))
		if it%16 == 0 {
			span = 300
		}
		vs := randomLoop(rng, k, span)
		off := offsets[it%len(offsets)]
		for i := range vs {
			vs[i].X += off.X
			vs[i].Y += off.Y
		}
		p := loopPolygon(vs)
		want := pairwiseSimple(p)
		cols := int32(p.mbr.MaxX-p.mbr.MinX) + 1
		rows := int32(p.mbr.MaxY-p.mbr.MinY) + 1
		if got := p.checkSimpleLattice(cols, rows); got != want {
			t.Fatalf("lattice check of %v = %v, pairwise %v", vs, got, want)
		}
		if got := p.checkSimple(); got != want {
			t.Fatalf("checkSimple of %v = %v, pairwise %v", vs, got, want)
		}
		verdicts[want]++
	}
	for _, v := range []error{nil, ErrRepeatedVertex, ErrSelfIntersecting} {
		if verdicts[v] < iters/100 {
			t.Errorf("only %d of %d loops had verdict %v; the generator no longer covers it", verdicts[v], iters, v)
		}
	}
}

// TestCheckSimpleWideExtents covers the dispatch on extents that do not fit
// the lattice, up to the full int32 range where (w+1)*(h+1) overflows int64.
func TestCheckSimpleWideExtents(t *testing.T) {
	lo, hi := int32(math.MinInt32), int32(math.MaxInt32)
	cases := [][]Point{
		{{lo, lo}, {hi, lo}, {hi, hi}, {lo, hi}},
		{{0, 0}, {maxLatticePoints, 0}, {maxLatticePoints, 1}, {0, 1}},
		{{0, 0}, {1, 0}, {1, maxLatticePoints}, {0, maxLatticePoints}},
		{{0, 0}, {300, 0}, {300, 300}, {0, 300}},
		// A crossing figure eight across the full range.
		{{lo, lo}, {0, lo}, {0, hi}, {hi, hi}, {hi, 0}, {lo, 0}},
	}
	for _, vs := range cases {
		p := loopPolygon(vs)
		if got, want := p.checkSimple(), pairwiseSimple(p); got != want {
			t.Errorf("checkSimple of %v = %v, pairwise %v", vs, got, want)
		}
	}
}
