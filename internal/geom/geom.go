// Package geom provides the geometric primitives used throughout the SCCG
// reproduction: integer points, minimum bounding rectangles, and rectilinear
// polygons as segmented from raster pathology images.
//
// Polygons extracted from medical images have a special structure that the
// whole system exploits (paper §3.1): vertex coordinates are integer-valued
// and every edge is either horizontal or vertical, because segmentation
// boundaries follow the pixel grid of the source raster image. A polygon is
// interpreted as the set of unit pixels enclosed by its boundary; the shoelace
// area of such a polygon equals its pixel count exactly.
package geom

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Point is an integer-valued vertex on the pixel grid of a source image.
type Point struct {
	X, Y int32
}

// String renders the point as "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// MBR is a minimum bounding rectangle in pixel-grid coordinates. The
// rectangle spans [MinX, MaxX] x [MinY, MaxY] in geometric coordinates, which
// covers the pixels with x in [MinX, MaxX) and y in [MinY, MaxY).
type MBR struct {
	MinX, MinY, MaxX, MaxY int32
}

// EmptyMBR returns an MBR that contains nothing and acts as the identity for
// Extend.
func EmptyMBR() MBR {
	return MBR{
		MinX: math.MaxInt32, MinY: math.MaxInt32,
		MaxX: math.MinInt32, MaxY: math.MinInt32,
	}
}

// IsEmpty reports whether the MBR covers no pixels.
func (m MBR) IsEmpty() bool { return m.MinX >= m.MaxX || m.MinY >= m.MaxY }

// Width returns the horizontal extent in pixels.
func (m MBR) Width() int32 {
	if m.IsEmpty() {
		return 0
	}
	return m.MaxX - m.MinX
}

// Height returns the vertical extent in pixels.
func (m MBR) Height() int32 {
	if m.IsEmpty() {
		return 0
	}
	return m.MaxY - m.MinY
}

// Pixels returns the number of pixels covered by the MBR.
func (m MBR) Pixels() int64 {
	if m.IsEmpty() {
		return 0
	}
	return int64(m.MaxX-m.MinX) * int64(m.MaxY-m.MinY)
}

// Intersects reports whether two MBRs share at least one pixel. This is the
// "&&" operator of the optimised cross-comparing query (paper Fig. 1b).
func (m MBR) Intersects(o MBR) bool {
	return m.MinX < o.MaxX && o.MinX < m.MaxX && m.MinY < o.MaxY && o.MinY < m.MaxY
}

// Touches reports whether two MBRs intersect or share a boundary.
func (m MBR) Touches(o MBR) bool {
	return m.MinX <= o.MaxX && o.MinX <= m.MaxX && m.MinY <= o.MaxY && o.MinY <= m.MaxY
}

// Intersection returns the overlapping region of two MBRs; the result is
// empty when they do not intersect.
func (m MBR) Intersection(o MBR) MBR {
	r := MBR{
		MinX: max32(m.MinX, o.MinX), MinY: max32(m.MinY, o.MinY),
		MaxX: min32(m.MaxX, o.MaxX), MaxY: min32(m.MaxY, o.MaxY),
	}
	if r.IsEmpty() {
		return MBR{}
	}
	return r
}

// Union returns the smallest MBR covering both inputs.
func (m MBR) Union(o MBR) MBR {
	if m.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return m
	}
	return MBR{
		MinX: min32(m.MinX, o.MinX), MinY: min32(m.MinY, o.MinY),
		MaxX: max32(m.MaxX, o.MaxX), MaxY: max32(m.MaxY, o.MaxY),
	}
}

// Extend grows the MBR to include p as a vertex (geometric coordinate).
func (m MBR) Extend(p Point) MBR {
	return MBR{
		MinX: min32(m.MinX, p.X), MinY: min32(m.MinY, p.Y),
		MaxX: max32(m.MaxX, p.X), MaxY: max32(m.MaxY, p.Y),
	}
}

// ContainsPixel reports whether the pixel at (x, y) lies inside the MBR.
func (m MBR) ContainsPixel(x, y int32) bool {
	return x >= m.MinX && x < m.MaxX && y >= m.MinY && y < m.MaxY
}

// Contains reports whether o lies entirely within m.
func (m MBR) Contains(o MBR) bool {
	if o.IsEmpty() {
		return true
	}
	return o.MinX >= m.MinX && o.MaxX <= m.MaxX && o.MinY >= m.MinY && o.MaxY <= m.MaxY
}

// Center returns the geometric centre of the MBR in doubled coordinates, so
// that half-integer centres remain exactly representable in integers.
func (m MBR) Center() (cx2, cy2 int64) {
	return int64(m.MinX) + int64(m.MaxX), int64(m.MinY) + int64(m.MaxY)
}

// Scale multiplies all coordinates by factor (used by the scale-factor
// experiments of paper §5.2, which grow polygons by multiplying vertex
// coordinates).
func (m MBR) Scale(factor int32) MBR {
	return MBR{m.MinX * factor, m.MinY * factor, m.MaxX * factor, m.MaxY * factor}
}

func (m MBR) String() string {
	return fmt.Sprintf("[%d,%d %d,%d]", m.MinX, m.MinY, m.MaxX, m.MaxY)
}

// HEdge is a horizontal polygon edge at height Y spanning [X1, X2] with
// X1 < X2 (normalised regardless of traversal direction).
type HEdge struct {
	Y, X1, X2 int32
}

// VEdge is a vertical polygon edge at abscissa X spanning [Y1, Y2] with
// Y1 < Y2 (normalised regardless of traversal direction).
type VEdge struct {
	X, Y1, Y2 int32
}

// Polygon is a simple rectilinear polygon: a closed loop of vertices with
// strictly alternating horizontal and vertical edges and integer coordinates.
// The vertex slice stores each corner exactly once; the closing edge from the
// last vertex back to the first is implicit.
//
// The zero value is an empty polygon with no area.
type Polygon struct {
	vertices []Point
	mbr      MBR
	area     int64 // pixel count; cached at construction
}

// Validation errors returned by NewPolygon.
var (
	ErrTooFewVertices   = errors.New("geom: rectilinear polygon needs at least 4 vertices")
	ErrOddVertexCount   = errors.New("geom: rectilinear polygon must have an even vertex count")
	ErrNotRectilinear   = errors.New("geom: consecutive vertices must differ in exactly one axis")
	ErrZeroLengthEdge   = errors.New("geom: polygon has a zero-length edge")
	ErrNotAlternating   = errors.New("geom: edges must alternate horizontal/vertical")
	ErrZeroArea         = errors.New("geom: polygon encloses no pixels")
	ErrRepeatedVertex   = errors.New("geom: polygon repeats a vertex")
	ErrSelfIntersecting = errors.New("geom: polygon boundary self-intersects")
)

// NewPolygon validates vertices as a simple rectilinear polygon and returns
// it. Vertices may wind in either direction; the implicit closing edge is
// checked like any other. Collinear runs are not permitted: every vertex must
// be a true corner, which is what boundary tracers emit.
func NewPolygon(vertices []Point) (*Polygon, error) {
	n := len(vertices)
	if n < 4 {
		return nil, ErrTooFewVertices
	}
	if n%2 != 0 {
		return nil, ErrOddVertexCount
	}
	mbr := EmptyMBR()
	prevHorizontal := false
	for i := 0; i < n; i++ {
		a, b := vertices[i], vertices[(i+1)%n]
		dx, dy := b.X-a.X, b.Y-a.Y
		switch {
		case dx == 0 && dy == 0:
			return nil, ErrZeroLengthEdge
		case dx != 0 && dy != 0:
			return nil, ErrNotRectilinear
		}
		horizontal := dy == 0
		if i > 0 && horizontal == prevHorizontal {
			return nil, ErrNotAlternating
		}
		prevHorizontal = horizontal
		mbr = mbr.Extend(a)
	}
	// The closing edge (n-1 -> 0) and the first edge (0 -> 1) must also
	// alternate; since n is even and edges alternate pairwise this is
	// guaranteed, but verify to be safe against n==4 degenerate inputs.
	last := edgeHorizontal(vertices[n-1], vertices[0])
	first := edgeHorizontal(vertices[0], vertices[1])
	if last == first {
		return nil, ErrNotAlternating
	}
	p := &Polygon{vertices: vertices, mbr: mbr}
	p.area = shoelace(vertices)
	if p.area == 0 {
		return nil, ErrZeroArea
	}
	if err := p.checkSimple(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustPolygon is NewPolygon that panics on invalid input; for tests and
// literals.
func MustPolygon(vertices []Point) *Polygon {
	p, err := NewPolygon(vertices)
	if err != nil {
		panic(err)
	}
	return p
}

func edgeHorizontal(a, b Point) bool { return a.Y == b.Y }

// shoelace returns the absolute polygon area via the surveyor's formula,
// A = |sum(x_i*y_{i+1} - x_{i+1}*y_i)| / 2. For rectilinear integer polygons
// the sum is always even and the result equals the enclosed pixel count.
func shoelace(vs []Point) int64 {
	var sum int64
	n := len(vs)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += int64(vs[i].X)*int64(vs[j].Y) - int64(vs[j].X)*int64(vs[i].Y)
	}
	if sum < 0 {
		sum = -sum
	}
	return sum / 2
}

// checkSimple verifies that no two non-adjacent edges intersect and no vertex
// repeats. Polygons whose MBR lattice fits in maxLatticePoints are checked
// in O(perimeter) by marking the lattice; larger ones fall back to the
// O(e^2) pairwise edge test. Both give the same verdict on every input.
func (p *Polygon) checkSimple() error {
	w := int64(p.mbr.MaxX) - int64(p.mbr.MinX)
	h := int64(p.mbr.MaxY) - int64(p.mbr.MinY)
	// Test each extent before the product: near the int32 limits w*h, or
	// (w+1)*(h+1), can overflow.
	if w < maxLatticePoints && h < maxLatticePoints && (w+1)*(h+1) <= maxLatticePoints {
		return p.checkSimpleLattice(int32(w+1), int32(h+1))
	}
	return p.checkSimplePairwise()
}

// maxLatticePoints bounds the MBR lattice checkSimpleLattice marks: three
// bitsets of this many bits (24 KiB together) cover every polygon of a
// 256x256 MBR, well above the nuclei this system handles.
const maxLatticePoints = 1 << 16

// latticePool recycles the bitsets of checkSimpleLattice, which runs on
// every polygon the parser and the store decode.
var latticePool = sync.Pool{New: func() any { return new([]uint64) }}

// checkSimpleLattice is checkSimple over a cols x rows point lattice that
// covers the MBR. It marks three bitsets, each indexed by a lattice point:
// vertices, the left ends of horizontal unit segments and the lower ends of
// vertical unit segments. A vertex marked twice is ErrRepeatedVertex, and a
// unit segment marked twice is two overlapping collinear edges. An interior
// point of a vertical edge that starts a horizontal unit segment is either a
// proper crossing or a vertex inside the vertical edge, whose own vertical
// edge then overlaps it. Those are exactly the rejections of
// checkSimplePairwise.
func (p *Polygon) checkSimpleLattice(cols, rows int32) error {
	words := (int(cols)*int(rows) + 63) / 64
	bufp := latticePool.Get().(*[]uint64)
	defer latticePool.Put(bufp)
	if cap(*bufp) < 3*words {
		*bufp = make([]uint64, 3*words)
	}
	buf := (*bufp)[:3*words]
	clear(buf)
	verts, hsegs, vsegs := buf[:words], buf[words:2*words], buf[2*words:]

	// mark sets bit i and reports whether it was already set.
	mark := func(set []uint64, i int32) bool {
		w, b := i>>6, uint64(1)<<(i&63)
		hit := set[w]&b != 0
		set[w] |= b
		return hit
	}
	at := func(x, y int32) int32 { return (y-p.mbr.MinY)*cols + (x - p.mbr.MinX) }

	for _, v := range p.vertices {
		if mark(verts, at(v.X, v.Y)) {
			return ErrRepeatedVertex
		}
	}
	prev := p.vertices[len(p.vertices)-1]
	for _, v := range p.vertices {
		if v.Y == prev.Y {
			x1, x2 := ordered(prev.X, v.X)
			for x := x1; x < x2; x++ {
				if mark(hsegs, at(x, v.Y)) {
					return ErrSelfIntersecting
				}
			}
		}
		prev = v
	}
	for _, v := range p.vertices {
		if v.X == prev.X {
			y1, y2 := ordered(prev.Y, v.Y)
			for y := y1; y < y2; y++ {
				i := at(v.X, y)
				if mark(vsegs, i) || (y > y1 && hsegs[i>>6]&(1<<(i&63)) != 0) {
					return ErrSelfIntersecting
				}
			}
		}
		prev = v
	}
	return nil
}

// checkSimplePairwise is checkSimple by testing every pair of edges.
func (p *Polygon) checkSimplePairwise() error {
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
	// Horizontal-horizontal overlap on the same row.
	for i := 0; i < len(hs); i++ {
		for j := i + 1; j < len(hs); j++ {
			if hs[i].Y == hs[j].Y && hs[i].X1 < hs[j].X2 && hs[j].X1 < hs[i].X2 {
				return ErrSelfIntersecting
			}
		}
	}
	// Vertical-vertical overlap on the same column.
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if vs[i].X == vs[j].X && vs[i].Y1 < vs[j].Y2 && vs[j].Y1 < vs[i].Y2 {
				return ErrSelfIntersecting
			}
		}
	}
	// Horizontal-vertical proper crossings (shared endpoints are fine: that
	// is how consecutive edges join).
	for _, h := range hs {
		for _, v := range vs {
			if h.X1 < v.X && v.X < h.X2 && v.Y1 < h.Y && h.Y < v.Y2 {
				return ErrSelfIntersecting
			}
		}
	}
	return nil
}

// Vertices returns the polygon's vertex loop. Callers must not modify it.
func (p *Polygon) Vertices() []Point { return p.vertices }

// NumVertices returns the number of corners.
func (p *Polygon) NumVertices() int { return len(p.vertices) }

// MBR returns the polygon's minimum bounding rectangle.
func (p *Polygon) MBR() MBR { return p.mbr }

// Area returns the enclosed pixel count (exact).
func (p *Polygon) Area() int64 { return p.area }

// VerticalEdges returns all vertical edges, each normalised so Y1 < Y2.
func (p *Polygon) VerticalEdges() []VEdge {
	n := len(p.vertices)
	out := make([]VEdge, 0, n/2)
	for i := 0; i < n; i++ {
		a, b := p.vertices[i], p.vertices[(i+1)%n]
		if a.X == b.X {
			y1, y2 := a.Y, b.Y
			if y1 > y2 {
				y1, y2 = y2, y1
			}
			out = append(out, VEdge{X: a.X, Y1: y1, Y2: y2})
		}
	}
	return out
}

// HorizontalEdges returns all horizontal edges, each normalised so X1 < X2.
func (p *Polygon) HorizontalEdges() []HEdge {
	n := len(p.vertices)
	out := make([]HEdge, 0, n/2)
	for i := 0; i < n; i++ {
		a, b := p.vertices[i], p.vertices[(i+1)%n]
		if a.Y == b.Y {
			x1, x2 := a.X, b.X
			if x1 > x2 {
				x1, x2 = x2, x1
			}
			out = append(out, HEdge{Y: a.Y, X1: x1, X2: x2})
		}
	}
	return out
}

// ContainsPixel reports whether the unit pixel at (x, y) — the square
// [x,x+1) x [y,y+1) — lies inside the polygon. The test casts a horizontal
// ray from the pixel centre towards -infinity and counts crossings with
// vertical edges (paper §3.1, Fig. 4b). Because edges sit on integer grid
// lines and the centre sits at half-integers, the ray never grazes a vertex
// and the parity test is exact in integer arithmetic.
func (p *Polygon) ContainsPixel(x, y int32) bool {
	if !p.mbr.ContainsPixel(x, y) {
		return false
	}
	crossings := 0
	vs := p.vertices
	for i, j := 0, len(vs)-1; i < len(vs); j, i = i, i+1 {
		a, v := vs[j], vs[i]
		if a.X != v.X {
			continue // horizontal edge: parallel to the ray
		}
		y1, y2 := ordered(a.Y, v.Y)
		// Edge at abscissa a.X crosses the ray y = y+0.5, x' < x+0.5
		// iff a.X <= x and y1 <= y < y2.
		if a.X <= x && y1 <= y && y < y2 {
			crossings++
		}
	}
	return crossings%2 == 1
}

// RowCrossings appends to buf, in ascending order, the abscissae of the
// vertical edges that span row y (the pixels [x,x+1) x [y,y+1)), and returns
// the extended slice. The pixels of the row inside the polygon are then the
// runs [xs[0],xs[1]), [xs[2],xs[3]), ...: the same parity ContainsPixel
// counts, found once per row instead of once per pixel. Passing a slice of a
// caller-owned array keeps the common case free of allocation.
func (p *Polygon) RowCrossings(y int32, buf []int32) []int32 {
	if y < p.mbr.MinY || y >= p.mbr.MaxY {
		return buf
	}
	start := len(buf)
	vs := p.vertices
	for i, j := 0, len(vs)-1; i < len(vs); j, i = i, i+1 {
		a, v := vs[j], vs[i]
		if a.X != v.X {
			continue
		}
		if y1, y2 := ordered(a.Y, v.Y); y < y1 || y >= y2 {
			continue
		}
		// Insertion sort: a row crosses only a handful of edges.
		buf = append(buf, v.X)
		k := len(buf) - 1
		for ; k > start && buf[k-1] > v.X; k-- {
			buf[k] = buf[k-1]
		}
		buf[k] = v.X
	}
	return buf
}

// ContainsCenter2 reports whether the point (cx2/2, cy2/2), given in doubled
// coordinates, lies strictly inside the polygon. Callers must ensure the
// point does not lie exactly on the boundary (odd doubled coordinates are
// always safe). Used by the Lemma-1 sampling-box position test.
func (p *Polygon) ContainsCenter2(cx2, cy2 int64) bool {
	crossings := 0
	vs := p.vertices
	for i, j := 0, len(vs)-1; i < len(vs); j, i = i, i+1 {
		a, v := vs[j], vs[i]
		if a.X != v.X {
			continue
		}
		y1, y2 := ordered(a.Y, v.Y)
		if int64(a.X)*2 < cx2 && int64(y1)*2 < cy2 && cy2 < int64(y2)*2 {
			crossings++
		}
	}
	return crossings%2 == 1
}

// BoxPosition classifies a sampling box against the polygon per Lemma 1 of
// the paper: Inside (every pixel of the box is inside), Outside (every pixel
// outside), or Hover (mixed). The box is the pixel rectangle b, i.e. the
// geometric square [b.MinX, b.MaxX] x [b.MinY, b.MaxY].
//
// The implementation uses an equivalent, robust formulation of the lemma's
// three conditions: the box hovers iff some polygon edge passes through the
// box's open interior (which subsumes both "an edge crosses a box edge" and
// "a polygon vertex lies inside the box"); otherwise the position of the
// box's geometric centre decides Inside vs Outside. Boundary segments lying
// exactly on the box border do not force Hover — the paper notes such boxes
// may be classified either way, and the next refinement level resolves them.
func (p *Polygon) BoxPosition(b MBR) BoxPos {
	if !p.mbr.Intersects(b) {
		return BoxOutside
	}
	vs := p.vertices
	for i, j := 0, len(vs)-1; i < len(vs); j, i = i, i+1 {
		a, c := vs[j], vs[i]
		if a.X == c.X { // vertical edge
			y1, y2 := ordered(a.Y, c.Y)
			if b.MinX < a.X && a.X < b.MaxX && y1 < b.MaxY && b.MinY < y2 {
				return BoxHover
			}
		} else { // horizontal edge
			x1, x2 := ordered(a.X, c.X)
			if b.MinY < a.Y && a.Y < b.MaxY && x1 < b.MaxX && b.MinX < x2 {
				return BoxHover
			}
		}
	}
	// Lemma 1 condition (iii) tests the box's geometric centre; once the box
	// is known not to hover, every pixel of the box lies on the same side,
	// so the centre of the box's first pixel — always at half-integer
	// coordinates, hence never on the boundary grid — decides robustly.
	if p.ContainsPixel(b.MinX, b.MinY) {
		return BoxInside
	}
	return BoxOutside
}

// BoxPos is the position of a sampling box relative to a polygon (paper
// Fig. 5).
type BoxPos uint8

// Sampling-box positions.
const (
	BoxOutside BoxPos = iota // every pixel of the box lies outside the polygon
	BoxInside                // every pixel of the box lies inside the polygon
	BoxHover                 // the polygon boundary passes through the box
)

func (b BoxPos) String() string {
	switch b {
	case BoxOutside:
		return "outside"
	case BoxInside:
		return "inside"
	case BoxHover:
		return "hover"
	default:
		return fmt.Sprintf("BoxPos(%d)", uint8(b))
	}
}

// Scale returns a copy of the polygon with every vertex coordinate multiplied
// by factor, growing its pixel area by factor^2. This mirrors the paper's
// stress test (§5.2), which scales vertex coordinates by factors 1–5.
func (p *Polygon) Scale(factor int32) *Polygon {
	if factor == 1 {
		return p
	}
	vs := make([]Point, len(p.vertices))
	for i, v := range p.vertices {
		vs[i] = Point{v.X * factor, v.Y * factor}
	}
	return &Polygon{
		vertices: vs,
		mbr:      p.mbr.Scale(factor),
		area:     p.area * int64(factor) * int64(factor),
	}
}

// Translate returns a copy of the polygon shifted by (dx, dy).
func (p *Polygon) Translate(dx, dy int32) *Polygon {
	vs := make([]Point, len(p.vertices))
	for i, v := range p.vertices {
		vs[i] = Point{v.X + dx, v.Y + dy}
	}
	return &Polygon{
		vertices: vs,
		mbr: MBR{p.mbr.MinX + dx, p.mbr.MinY + dy,
			p.mbr.MaxX + dx, p.mbr.MaxY + dy},
		area: p.area,
	}
}

// Rect builds the rectangle polygon covering pixels [x0,x1) x [y0,y1).
func Rect(x0, y0, x1, y1 int32) *Polygon {
	return MustPolygon([]Point{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}})
}

// ordered returns a and b in ascending order.
func ordered(a, b int32) (int32, int32) {
	if a > b {
		return b, a
	}
	return a, b
}

func min32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func max32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
