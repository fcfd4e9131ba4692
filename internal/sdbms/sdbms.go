// Package sdbms is a miniature spatial database engine standing in for the
// paper's PostGIS/PostgreSQL baseline.
//
// Fidelity to the baseline's cost structure matters as much as to its
// results. Like PostGIS, the engine stores geometries serialized (WKB) with
// a cached bounding box, builds an R-tree index over the boxes, and — the
// expensive part — has every spatial operator call deserialize and validate
// its geometry arguments before computing (package wkb), because that is how
// the PostgreSQL function-call convention works. Spatial computation is
// implemented on the clip package — the GEOS equivalent — and, like PostGIS,
// the executor constructs intersection and union boundaries per tuple rather
// than computing areas directly.
//
// The executor supports the paper's two cross-comparing query forms
// (Fig. 1a and 1b) with per-operator time profiling, reproducing the Fig. 2
// decomposition: in the optimised query, the area of intersection captures
// ~90% of execution time, the bottleneck PixelBox removes.
package sdbms

import (
	"fmt"
	"time"

	"repro/internal/clip"
	"repro/internal/geom"
	"repro/internal/rtree"
	"repro/internal/wkb"
)

// DB is an in-memory spatial database: a catalog of polygon tables.
type DB struct {
	tables map[string]*Table
}

// NewDB creates an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// Table is one polygon result set stored as a relation: serialized
// geometries plus their cached bounding boxes (as PostGIS keeps a bbox in
// the geometry header), with an R-tree index over the boxes (the GiST index
// of the PostGIS solution).
type Table struct {
	Name string

	rows [][]byte
	mbrs []geom.MBR

	index     *rtree.Tree
	buildTime time.Duration
}

// CreateTable loads polygons into a new table, serializing them to the
// on-disk form. Loading is not part of query profiling (the paper excludes
// load time); index building is profiled separately via BuildIndex.
func (db *DB) CreateTable(name string, polys []*geom.Polygon) (*Table, error) {
	if _, exists := db.tables[name]; exists {
		return nil, fmt.Errorf("sdbms: table %q already exists", name)
	}
	t := &Table{
		Name: name,
		rows: make([][]byte, len(polys)),
		mbrs: make([]geom.MBR, len(polys)),
	}
	for i, p := range polys {
		t.rows[i] = wkb.Marshal(p)
		t.mbrs[i] = p.MBR()
	}
	db.tables[name] = t
	return t, nil
}

// Len returns the table's row count.
func (t *Table) Len() int { return len(t.rows) }

// Table returns a table by name.
func (db *DB) Table(name string) (*Table, error) {
	t, ok := db.tables[name]
	if !ok {
		return nil, fmt.Errorf("sdbms: no table %q", name)
	}
	return t, nil
}

// DropTable removes a table.
func (db *DB) DropTable(name string) {
	delete(db.tables, name)
}

// BuildIndex builds the table's MBR index if not yet present and returns
// the time spent.
func (t *Table) BuildIndex() time.Duration {
	if t.index != nil {
		return t.buildTime
	}
	start := time.Now()
	entries := make([]rtree.Entry, len(t.rows))
	for i, m := range t.mbrs {
		entries[i] = rtree.Entry{MBR: m, ID: int32(i)}
	}
	t.index = rtree.Build(entries, rtree.Options{})
	t.buildTime = time.Since(start)
	return t.buildTime
}

// QueryForm selects between the paper's two cross-comparing SQL forms.
type QueryForm int

// Query forms of Fig. 1.
const (
	// Unoptimized evaluates ST_Intersects as the join predicate and
	// computes both ST_Area(ST_Intersection(...)) and
	// ST_Area(ST_Union(...)) per joined tuple (Fig. 1a).
	Unoptimized QueryForm = iota
	// Optimized joins on the && MBR-overlap operator and computes only the
	// area of intersection, deriving the union area from
	// ‖p∪q‖ = ‖p‖+‖q‖−‖p∩q‖ (Fig. 1b).
	Optimized
)

func (f QueryForm) String() string {
	if f == Unoptimized {
		return "unoptimized"
	}
	return "optimized"
}

// Profile decomposes query execution time by component, mirroring Fig. 2.
// Each spatial operator's bucket includes the per-call geometry
// deserialization its arguments cost, as in the real system.
type Profile struct {
	IndexBuild         time.Duration
	IndexSearch        time.Duration
	STIntersects       time.Duration
	AreaOfIntersection time.Duration
	AreaOfUnion        time.Duration
	STArea             time.Duration
	Other              time.Duration
}

// Total returns the summed execution time.
func (p Profile) Total() time.Duration {
	return p.IndexBuild + p.IndexSearch + p.STIntersects +
		p.AreaOfIntersection + p.AreaOfUnion + p.STArea + p.Other
}

// Components returns the profile as ordered (label, duration) rows for
// reporting.
func (p Profile) Components() []struct {
	Label string
	D     time.Duration
} {
	return []struct {
		Label string
		D     time.Duration
	}{
		{"Index_Build", p.IndexBuild},
		{"Index_Search", p.IndexSearch},
		{"ST_Intersects", p.STIntersects},
		{"Area_Of_Intersection", p.AreaOfIntersection},
		{"Area_Of_Union", p.AreaOfUnion},
		{"ST_Area", p.STArea},
		{"Other", p.Other},
	}
}

// Result is the output of a cross-comparing query.
type Result struct {
	// Similarity is J' of Eq. 1: the mean Jaccard ratio over genuinely
	// intersecting pairs.
	Similarity float64
	// CandidatePairs is the number of MBR-intersecting pairs the index
	// join produced; IntersectingPairs the number with non-zero area of
	// intersection.
	CandidatePairs    int
	IntersectingPairs int
	// Profile is the per-operator time decomposition.
	Profile Profile
}

// CrossCompare executes the cross-comparing query over two tables on the
// calling goroutine (the single-core PostGIS-S baseline) and returns the
// similarity together with the operator profile.
func (db *DB) CrossCompare(name1, name2 string, form QueryForm) (Result, error) {
	t1, err := db.Table(name1)
	if err != nil {
		return Result{}, err
	}
	t2, err := db.Table(name2)
	if err != nil {
		return Result{}, err
	}
	return crossCompare(t1, t2, form)
}

// STAreaOfIntersection is the combo operator ST_Area(ST_Intersection(a,b))
// with the full PostGIS calling convention: deserialize and validate both
// arguments, construct the intersection boundary, measure it.
func STAreaOfIntersection(a, b []byte) (int64, error) {
	p, err := wkb.Unmarshal(a)
	if err != nil {
		return 0, err
	}
	q, err := wkb.Unmarshal(b)
	if err != nil {
		return 0, err
	}
	return clip.RegionArea(clip.TopologyOverlay(p, q, clip.OpAnd)), nil
}

// STAreaOfUnion is ST_Area(ST_Union(a,b)) under the same convention.
func STAreaOfUnion(a, b []byte) (int64, error) {
	p, err := wkb.Unmarshal(a)
	if err != nil {
		return 0, err
	}
	q, err := wkb.Unmarshal(b)
	if err != nil {
		return 0, err
	}
	return clip.RegionArea(clip.TopologyOverlay(p, q, clip.OpOr)), nil
}

// STIntersects is the spatial predicate with per-call deserialization.
func STIntersects(a, b []byte) (bool, error) {
	p, err := wkb.Unmarshal(a)
	if err != nil {
		return false, err
	}
	q, err := wkb.Unmarshal(b)
	if err != nil {
		return false, err
	}
	return clip.Intersects(p, q), nil
}

// STArea deserializes one geometry and computes its area by the shoelace
// formula (not a cached value — PostGIS recomputes).
func STArea(a []byte) (int64, error) {
	p, err := wkb.Unmarshal(a)
	if err != nil {
		return 0, err
	}
	vs := p.Vertices()
	var sum int64
	n := len(vs)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		sum += int64(vs[i].X)*int64(vs[j].Y) - int64(vs[j].X)*int64(vs[i].Y)
	}
	if sum < 0 {
		sum = -sum
	}
	return sum / 2, nil
}

func crossCompare(t1, t2 *Table, form QueryForm) (Result, error) {
	var res Result
	res.Profile.IndexBuild = t1.BuildIndex() + t2.BuildIndex()

	start := time.Now()
	pairs, _ := rtree.Join(t1.index, t2.index, nil)
	res.Profile.IndexSearch = time.Since(start)
	res.CandidatePairs = len(pairs)

	var ratioSum float64
	for _, pr := range pairs {
		a := t1.rows[pr.A]
		b := t2.rows[pr.B]
		switch form {
		case Unoptimized:
			s := time.Now()
			hit, err := STIntersects(a, b)
			res.Profile.STIntersects += time.Since(s)
			if err != nil {
				return res, err
			}
			if !hit {
				continue
			}
			s = time.Now()
			interArea, err := STAreaOfIntersection(a, b)
			res.Profile.AreaOfIntersection += time.Since(s)
			if err != nil {
				return res, err
			}
			s = time.Now()
			unionArea, err := STAreaOfUnion(a, b)
			res.Profile.AreaOfUnion += time.Since(s)
			if err != nil {
				return res, err
			}
			s = time.Now()
			if interArea > 0 && unionArea > 0 {
				ratioSum += float64(interArea) / float64(unionArea)
				res.IntersectingPairs++
			}
			res.Profile.Other += time.Since(s)
		case Optimized:
			s := time.Now()
			interArea, err := STAreaOfIntersection(a, b)
			res.Profile.AreaOfIntersection += time.Since(s)
			if err != nil {
				return res, err
			}
			s = time.Now()
			areaP, err := STArea(a)
			if err != nil {
				return res, err
			}
			areaQ, err := STArea(b)
			res.Profile.STArea += time.Since(s)
			if err != nil {
				return res, err
			}
			s = time.Now()
			if interArea > 0 {
				unionArea := areaP + areaQ - interArea
				ratioSum += float64(interArea) / float64(unionArea)
				res.IntersectingPairs++
			}
			res.Profile.Other += time.Since(s)
		}
	}
	if res.IntersectingPairs > 0 {
		res.Similarity = ratioSum / float64(res.IntersectingPairs)
	}
	return res, nil
}

// ModelParallelTime converts a measured single-core query time into the
// paper's PostGIS-M scheme: the polygon tables are partitioned into chunks
// and `streams` independent query streams run over `cores` physical cores
// with SMT yield htYield (extra effective throughput per hyperthread pair).
// The paper's EC2 baseline uses 16 streams on 2x4 cores with 16 hardware
// threads.
func ModelParallelTime(single time.Duration, streams, cores int, htYield float64) time.Duration {
	if streams < 1 {
		streams = 1
	}
	effective := float64(cores)
	if streams > cores {
		effective = float64(cores) * (1 + htYield)
		if s := float64(streams); s < effective {
			effective = s
		}
	} else {
		effective = float64(streams)
	}
	if effective < 1 {
		effective = 1
	}
	return time.Duration(float64(single) / effective)
}
