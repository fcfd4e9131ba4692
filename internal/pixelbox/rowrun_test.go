package pixelbox

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/geomtest"
)

// TestCountBoxMatchesContainsPixel checks the row-run counts against the
// per-pixel ray cast on every row of random boxes over random polygon
// pairs, including boxes that reach past both MBRs and boxes wholly outside.
func TestCountBoxMatchesContainsPixel(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EA4))
	pairs := 2000
	if testing.Short() {
		pairs = 200
	}
	const size = 40
	for n := 0; n < pairs; {
		p := geomtest.RandomPolygon(rng, size)
		q := geomtest.RandomPolygon(rng, size)
		if p == nil || q == nil {
			continue
		}
		n++
		for b := 0; b < 8; b++ {
			// Corners in [-8, size+8) so boxes often overhang the MBRs.
			x0, x1 := rng.Int31n(size+16)-8, rng.Int31n(size+16)-8
			y0, y1 := rng.Int31n(size+16)-8, rng.Int31n(size+16)-8
			box := geom.MBR{MinX: min(x0, x1), MinY: min(y0, y1), MaxX: max(x0, x1) + 1, MaxY: max(y0, y1) + 1}
			for y := box.MinY; y < box.MaxY; y++ {
				row := geom.MBR{MinX: box.MinX, MinY: y, MaxX: box.MaxX, MaxY: y + 1}
				var wantInter, wantUnion int64
				for x := row.MinX; x < row.MaxX; x++ {
					inP, inQ := p.ContainsPixel(x, y), q.ContainsPixel(x, y)
					if inP && inQ {
						wantInter++
					}
					if inP || inQ {
						wantUnion++
					}
				}
				inter, union := countBox(p, q, row, true)
				if inter != wantInter || union != wantUnion {
					t.Fatalf("p=%v q=%v row %v: runs give (%d,%d), pixels (%d,%d)",
						p.Vertices(), q.Vertices(), row, inter, union, wantInter, wantUnion)
				}
				if onlyInter, _ := countBox(p, q, row, false); onlyInter != wantInter {
					t.Fatalf("p=%v q=%v row %v: intersection without union %d, want %d",
						p.Vertices(), q.Vertices(), row, onlyInter, wantInter)
				}
			}
		}
	}
}
