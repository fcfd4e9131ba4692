// Package pathology is the segmentation simulator that substitutes for the
// paper's proprietary brain-tumour whole-slide images.
//
// A whole-slide image is modelled as a set of image tiles. For each tile the
// generator synthesises nucleus-like objects — noisy radial blobs rasterised
// onto the tile's integer pixel grid — and traces each blob's boundary into
// a simple rectilinear polygon, exactly the structure produced by real
// segmentation algorithms on raster images (paper §3.1). Two "segmentation
// result sets" per image are produced by re-segmenting the same ground-truth
// blobs with perturbed parameters, yielding the heavily-overlapping polygon
// pairs that cross-comparison consumes; a configurable fraction of objects
// is dropped from or added to either set to model missing polygons (§2.1).
//
// The generated corpus matches the paper's workload statistics: mean polygon
// area ≈ 150 pixels with standard deviation ≈ 100, thousands of polygons per
// tile group, and an 18-dataset spread of sizes (scaled down ~50x so the full
// suite runs on a laptop core; see pathology.Corpus).
package pathology

import (
	"math"
	"math/rand"

	"repro/internal/clip"
	"repro/internal/geom"
)

// Tile is one image tile's worth of segmented polygons from one algorithm.
type Tile struct {
	// Image and Index identify the tile within its slide image.
	Image string
	Index int
	// Polygons are the segmented object boundaries.
	Polygons []*geom.Polygon
}

// TilePair is the unit of cross-comparison work: the two result sets
// segmented from the same image tile by two different methods.
type TilePair struct {
	Image string
	Index int
	A, B  []*geom.Polygon
}

// GenConfig controls blob synthesis for one tile.
type GenConfig struct {
	// TileSize is the tile's square edge length in pixels.
	TileSize int32
	// Objects is the number of ground-truth objects per tile.
	Objects int
	// MeanRadius and RadiusSigma shape the blob radius distribution; the
	// defaults target the paper's mean polygon area of ~150 pixels.
	MeanRadius  float64
	RadiusSigma float64
	// Noise is the relative radial boundary noise amplitude (0..1).
	Noise float64
	// Jitter perturbs the second segmentation: centre shift in pixels and
	// relative radius change.
	JitterShift  float64
	JitterRadius float64
	// DropRate is the probability that an object is missing from one of
	// the two result sets.
	DropRate float64
}

// DefaultGenConfig returns generation parameters matching the paper's
// polygon statistics.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		TileSize:     512,
		Objects:      48,
		MeanRadius:   6.9, // pi*r^2 ~ 150 pixels
		RadiusSigma:  2.2,
		Noise:        0.25,
		JitterShift:  1.5,
		JitterRadius: 0.12,
		DropRate:     0.04,
	}
}

// blob is a ground-truth object prior to rasterisation.
type blob struct {
	cx, cy float64
	radius float64
	// phase and lobes parameterise the angular noise so a re-segmentation
	// of the same blob stays correlated with the original.
	phase float64
	lobes int
	amp   float64
}

// GenerateTilePair synthesises one tile's ground truth and segments it with
// two perturbed parameter sets, returning the two polygon result sets. The
// generator is fully deterministic given rng's state.
func GenerateTilePair(rng *rand.Rand, image string, index int, cfg GenConfig) TilePair {
	blobs := groundTruth(rng, cfg)
	a := make([]*geom.Polygon, 0, len(blobs))
	b := make([]*geom.Polygon, 0, len(blobs))
	for _, bl := range blobs {
		dropA := rng.Float64() < cfg.DropRate
		dropB := rng.Float64() < cfg.DropRate
		if !dropA {
			if p := rasterize(bl, cfg.TileSize); p != nil {
				a = append(a, p)
			}
		}
		if !dropB {
			jb := bl
			jb.cx += rng.NormFloat64() * cfg.JitterShift
			jb.cy += rng.NormFloat64() * cfg.JitterShift
			jb.radius *= 1 + rng.NormFloat64()*cfg.JitterRadius
			jb.phase += rng.NormFloat64() * 0.15
			if p := rasterize(jb, cfg.TileSize); p != nil {
				b = append(b, p)
			}
		}
	}
	return TilePair{Image: image, Index: index, A: a, B: b}
}

// groundTruth places blobs on a jittered grid so that objects rarely overlap
// within one result set, as segmented nuclei rarely do.
func groundTruth(rng *rand.Rand, cfg GenConfig) []blob {
	// Grid with one candidate cell per object and ~30% slack.
	cells := int(math.Ceil(math.Sqrt(float64(cfg.Objects) * 1.3)))
	cellSize := float64(cfg.TileSize) / float64(cells)
	order := rng.Perm(cells * cells)
	blobs := make([]blob, 0, cfg.Objects)
	for _, c := range order {
		if len(blobs) >= cfg.Objects {
			break
		}
		gx, gy := c%cells, c/cells
		r := cfg.MeanRadius + rng.NormFloat64()*cfg.RadiusSigma
		if r < 2.0 {
			r = 2.0
		}
		margin := r + 2
		if margin*2 >= cellSize {
			margin = cellSize / 2.5
		}
		blobs = append(blobs, blob{
			cx:     float64(gx)*cellSize + margin + rng.Float64()*(cellSize-2*margin),
			cy:     float64(gy)*cellSize + margin + rng.Float64()*(cellSize-2*margin),
			radius: r,
			phase:  rng.Float64() * 2 * math.Pi,
			lobes:  3 + rng.Intn(4),
			amp:    cfg.Noise * (0.5 + rng.Float64()),
		})
	}
	return blobs
}

// rasterize renders a blob onto the pixel grid and traces the boundary of
// its largest connected component into a rectilinear polygon. Returns nil
// when the blob rasterises to nothing useful (off-tile or sub-pixel).
func rasterize(bl blob, tileSize int32) *geom.Polygon {
	rMax := bl.radius * (1 + bl.amp) // conservative outer bound
	x0 := int32(math.Floor(bl.cx - rMax - 1))
	y0 := int32(math.Floor(bl.cy - rMax - 1))
	x1 := int32(math.Ceil(bl.cx + rMax + 1))
	y1 := int32(math.Ceil(bl.cy + rMax + 1))
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > tileSize {
		x1 = tileSize
	}
	if y1 > tileSize {
		y1 = tileSize
	}
	w, h := int(x1-x0), int(y1-y0)
	if w <= 0 || h <= 0 {
		return nil
	}
	mask := make([]bool, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			px := float64(x0+int32(x)) + 0.5
			py := float64(y0+int32(y)) + 0.5
			dx, dy := px-bl.cx, py-bl.cy
			d := math.Hypot(dx, dy)
			θ := math.Atan2(dy, dx)
			rθ := bl.radius * (1 + bl.amp*math.Sin(float64(bl.lobes)*θ+bl.phase))
			if d <= rθ {
				mask[y*w+x] = true
			}
		}
	}
	keepLargestComponent(mask, w, h)
	fillHoles(mask, w, h)
	rects := maskToRects(mask, w, h, x0, y0)
	if len(rects) == 0 {
		return nil
	}
	rings := clip.RegionToRings(rects)
	var best *clip.Ring
	for i := range rings {
		if rings[i].IsHole() {
			continue
		}
		if best == nil || rings[i].SignedArea > best.SignedArea {
			best = &rings[i]
		}
	}
	if best == nil {
		return nil
	}
	poly, err := best.Polygon()
	if err != nil {
		return nil
	}
	return poly
}

// keepLargestComponent clears all but the biggest 4-connected component.
func keepLargestComponent(mask []bool, w, h int) {
	labels := make([]int32, w*h)
	var sizes []int32
	var stack []int32
	next := int32(0)
	for i := range mask {
		if !mask[i] || labels[i] != 0 {
			continue
		}
		next++
		size := int32(0)
		stack = append(stack[:0], int32(i))
		labels[i] = next
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			x, y := int(c)%w, int(c)/w
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || ny < 0 || nx >= w || ny >= h {
					continue
				}
				ni := int32(ny*w + nx)
				if mask[ni] && labels[ni] == 0 {
					labels[ni] = next
					stack = append(stack, ni)
				}
			}
		}
		sizes = append(sizes, size)
	}
	if len(sizes) <= 1 {
		return
	}
	bestLabel := int32(1)
	for l, s := range sizes {
		if s > sizes[bestLabel-1] {
			bestLabel = int32(l + 1)
		}
	}
	for i := range mask {
		if mask[i] && labels[i] != bestLabel {
			mask[i] = false
		}
	}
}

// fillHoles sets to true every false pixel not reachable from the bounding
// box border, making the blob simply connected so its boundary is a single
// ring.
func fillHoles(mask []bool, w, h int) {
	outside := make([]bool, w*h)
	var stack []int32
	push := func(x, y int) {
		i := int32(y*w + x)
		if !mask[i] && !outside[i] {
			outside[i] = true
			stack = append(stack, i)
		}
	}
	for x := 0; x < w; x++ {
		push(x, 0)
		push(x, h-1)
	}
	for y := 0; y < h; y++ {
		push(0, y)
		push(w-1, y)
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x, y := int(c)%w, int(c)/w
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx >= 0 && ny >= 0 && nx < w && ny < h {
				push(nx, ny)
			}
		}
	}
	for i := range mask {
		if !mask[i] && !outside[i] {
			mask[i] = true
		}
	}
}

// maskToRects converts a pixel mask into row-run rectangles in tile
// coordinates.
func maskToRects(mask []bool, w, h int, x0, y0 int32) []geom.MBR {
	var rects []geom.MBR
	for y := 0; y < h; y++ {
		x := 0
		for x < w {
			if !mask[y*w+x] {
				x++
				continue
			}
			start := x
			for x < w && mask[y*w+x] {
				x++
			}
			rects = append(rects, geom.MBR{
				MinX: x0 + int32(start), MinY: y0 + int32(y),
				MaxX: x0 + int32(x), MaxY: y0 + int32(y) + 1,
			})
		}
	}
	return rects
}
