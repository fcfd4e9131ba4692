package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"

	"repro/internal/geom"
	"repro/internal/parser"
	"repro/internal/pathology"
	"repro/internal/pipeline"
)

// imageName is the image key of every generated tile. Sharing it gives all
// datasets of a workload the same tile keys, so any two of them pair tile
// by tile in cross jobs and matrix cells.
const imageName = "bench"

// farShift translates the matrix workload's second slide so far that no
// per-tile stats window overlaps the first slide's: the planner's bounds can
// then rule out every cross-slide cell.
const farShift = 1 << 20

// tile is one generated tile: the polygons and the exact text sent to the
// daemon for them.
type tile struct {
	Index      int
	A, B       []*geom.Polygon
	RawA, RawB []byte
}

// dataset is one generated dataset as the daemon receives it.
type dataset struct {
	Name  string
	Tiles []tile
}

// rawBytes is the dataset's polygon text size, the quantity the paper
// normalises throughput by.
func (d dataset) rawBytes() int64 {
	var n int64
	for _, t := range d.Tiles {
		n += int64(len(t.RawA) + len(t.RawB))
	}
	return n
}

func (d dataset) polygons() int64 {
	var n int64
	for _, t := range d.Tiles {
		n += int64(len(t.A) + len(t.B))
	}
	return n
}

// polyTasks is the dataset as pre-parsed pipeline input.
func (d dataset) polyTasks() []pipeline.PolyTask {
	out := make([]pipeline.PolyTask, len(d.Tiles))
	for i, t := range d.Tiles {
		out[i] = pipeline.PolyTask{Image: imageName, Tile: t.Index, A: t.A, B: t.B}
	}
	return out
}

// putBody is the PUT /datasets request body: a JSON array of tile payloads
// with base64 polygon text.
func (d dataset) putBody() ([]byte, error) {
	type payload struct {
		Image string `json:"image"`
		Tile  int    `json:"tile"`
		RawA  []byte `json:"raw_a"`
		RawB  []byte `json:"raw_b"`
	}
	ps := make([]payload, len(d.Tiles))
	for i, t := range d.Tiles {
		ps[i] = payload{Image: imageName, Tile: t.Index, RawA: t.RawA, RawB: t.RawB}
	}
	return json.Marshal(ps)
}

// deriveSeed gives each generated stream its own seed, a pure function of
// the workload seed, the stream name and the index.
func deriveSeed(seed int64, stream string, i int) int64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(stream))
	return int64(h.Sum64() >> 1)
}

// makeDataset generates one Representative-shaped dataset, translates it by
// (dx, dy) and encodes its text.
func makeDataset(name string, gen pathology.GenConfig, seed int64, dx, dy int32) dataset {
	spec := pathology.Representative()
	spec.Name = imageName
	spec.Seed = seed
	spec.Gen = gen
	return fromPairs(name, pathology.Generate(spec).Pairs, dx, dy)
}

func fromPairs(name string, pairs []pathology.TilePair, dx, dy int32) dataset {
	d := dataset{Name: name, Tiles: make([]tile, len(pairs))}
	for i, tp := range pairs {
		t := tile{Index: tp.Index, A: tp.A, B: tp.B}
		if dx != 0 || dy != 0 {
			t.A, t.B = translate(tp.A, dx, dy), translate(tp.B, dx, dy)
		}
		t.RawA, t.RawB = parser.Encode(t.A), parser.Encode(t.B)
		d.Tiles[i] = t
	}
	return d
}

func translate(ps []*geom.Polygon, dx, dy int32) []*geom.Polygon {
	out := make([]*geom.Polygon, len(ps))
	for i, p := range ps {
		out[i] = p.Translate(dx, dy)
	}
	return out
}

// crossDatasets are cross_cold's four stored datasets: independent slides
// shaped like the corpus's representative dataset.
func crossDatasets(seed int64) []dataset {
	out := make([]dataset, 4)
	for i := range out {
		out[i] = makeDataset(fmt.Sprintf("cross-%d", i),
			pathology.Representative().Gen, deriveSeed(seed, "cross", i), 0, 0)
	}
	return out
}

// matrixDatasets are the matrix workload's six datasets: two slides, each
// segmented three times. A slide's variants share the ground-truth seed and
// differ in how far the second segmentation jitters; the second slide sits
// farShift away from the first.
func matrixDatasets(seed int64) []dataset {
	var out []dataset
	for slide := 0; slide < 2; slide++ {
		gt := deriveSeed(seed, "matrix", slide)
		shift := int32(slide * farShift)
		for v := 0; v < 3; v++ {
			gen := pathology.Representative().Gen
			gen.JitterShift = 1.0 + 0.5*float64(v)
			gen.JitterRadius = 0.08 + 0.04*float64(v)
			out = append(out, makeDataset(fmt.Sprintf("slide%d-v%d", slide, v), gen, gt, shift, shift))
		}
	}
	return out
}

// ingestPool is the tile pool the ingest workload re-uploads, generated once
// before timing starts.
func ingestPool(seed int64) []pathology.TilePair {
	spec := pathology.Representative()
	spec.Name = imageName
	spec.Seed = deriveSeed(seed, "ingest", 0)
	return pathology.Generate(spec).Pairs
}

// uploadGrid is how many translation steps the ingest workload takes per
// axis. Steps are 1000 pixels from 10000, so every translated coordinate of
// a tile (tile-local values are below 1000) prints as five digits. A run
// makes at most uploadGrid² distinct uploads.
const uploadGrid = 90

// uploadOffset is upload k's translation: distinct for every k below
// uploadGrid², so every upload has new content and a new content ID.
func uploadOffset(k int) (dx, dy int32) {
	return int32(10_000 + k%uploadGrid*1000), int32(10_000 + k/uploadGrid%uploadGrid*1000)
}

// ingestDataset is the k-th upload, generated the slow way: the pool's
// polygons translated and encoded. It is the reference the upload templates
// are tested against, and the input of the checks after the window.
func ingestDataset(pool []pathology.TilePair, k int) dataset {
	dx, dy := uploadOffset(k)
	return fromPairs(fmt.Sprintf("ingest-%d", k), pool, dx, dy)
}

// textTemplate is one polygon set's text with every coordinate printed as
// "10" followed by its three-digit tile-local value, and the positions of
// those two leading digits. A translated copy only rewrites them, so the
// timed loop never re-encodes polygons.
type textTemplate struct {
	text   []byte
	xs, ys []int
}

func newTextTemplate(polys []*geom.Polygon) (textTemplate, error) {
	var t textTemplate
	coord := func(v int32, at *[]int) error {
		if v < 0 || v >= 1000 {
			return fmt.Errorf("tile-local coordinate %d outside [0, 1000)", v)
		}
		*at = append(*at, len(t.text))
		t.text = append(t.text, '1', '0', byte('0'+v/100), byte('0'+v/10%10), byte('0'+v%10))
		return nil
	}
	for i, p := range polys {
		t.text = strconv.AppendInt(t.text, int64(i), 10)
		t.text = append(t.text, " POLYGON (("...)
		for j, v := range p.Vertices() {
			if j > 0 {
				t.text = append(t.text, ',')
			}
			if err := coord(v.X, &t.xs); err != nil {
				return t, err
			}
			t.text = append(t.text, ' ')
			if err := coord(v.Y, &t.ys); err != nil {
				return t, err
			}
		}
		t.text = append(t.text, "))\n"...)
	}
	return t, nil
}

// render returns the text translated by uploadOffset(k).
func (t textTemplate) render(k int) []byte {
	dx, dy := uploadOffset(k)
	out := append([]byte(nil), t.text...)
	for _, at := range []struct {
		pos    []int
		prefix int32
	}{{t.xs, dx / 1000}, {t.ys, dy / 1000}} {
		hi, lo := byte('0'+at.prefix/10), byte('0'+at.prefix%10)
		for _, i := range at.pos {
			out[i], out[i+1] = hi, lo
		}
	}
	return out
}

// uploads renders the ingest workload's uploads from the pool.
type uploads struct {
	a, b     []textTemplate
	tiles    []int
	polygons int64
}

func newUploads(pool []pathology.TilePair) (*uploads, error) {
	u := &uploads{}
	for _, tp := range pool {
		a, err := newTextTemplate(tp.A)
		if err != nil {
			return nil, err
		}
		b, err := newTextTemplate(tp.B)
		if err != nil {
			return nil, err
		}
		u.a, u.b = append(u.a, a), append(u.b, b)
		u.tiles = append(u.tiles, tp.Index)
		u.polygons += int64(len(tp.A) + len(tp.B))
	}
	return u, nil
}

// dataset returns upload k as text only: the tiles' polygons are left nil.
func (u *uploads) dataset(k int) dataset {
	d := dataset{Name: fmt.Sprintf("ingest-%d", k), Tiles: make([]tile, len(u.tiles))}
	for i, idx := range u.tiles {
		d.Tiles[i] = tile{Index: idx, RawA: u.a[i].render(k), RawB: u.b[i].render(k)}
	}
	return d
}
