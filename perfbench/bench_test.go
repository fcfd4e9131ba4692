package main

import (
	"testing"
	"time"

	"repro/internal/parser"
	"repro/internal/store"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 0, false}, {10, 0, false}, {19, 0, false},
		{20, 50, true}, {25, 60, true}, {30, 66, true}, {99, 89, true},
		{100, 90, true}, {101, 90, true}, {5000, 90, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if !ok {
			continue
		}
		// At least ten samples lie beyond the chosen rank, and below the
		// p90 cap one percentile more would leave fewer than ten.
		rank := func(p int) int { return (p*tc.n + 99) / 100 }
		if beyond := tc.n - rank(p); beyond < 10 {
			t.Errorf("n=%d p%d leaves %d samples beyond it", tc.n, p, beyond)
		}
		if p < maxTailPercentile && tc.n-rank(p+1) >= 10 {
			t.Errorf("n=%d: p%d also leaves ten samples beyond it, so p%d is not the highest", tc.n, p+1, p)
		}
	}
}

func TestSummarize(t *testing.T) {
	var v []float64
	for i := 100; i >= 1; i-- {
		v = append(v, float64(i))
	}
	s := summarize(v)
	if s.N != 100 || s.P50 != 50.5 || s.TailPct != 90 || s.Tail != 90 {
		t.Errorf("summarize(1..100) = %+v, want n=100 p50=50.5 p90=90", s)
	}
	s = summarize(v[:10])
	if s.N != 10 || s.TailPct != 0 || s.Tail != s.P50 || s.P50 != 95.5 {
		t.Errorf("summarize of 10 samples = %+v, want the median and no tail", s)
	}
}

func TestSelfTimes(t *testing.T) {
	at := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{Name: "bench.op", Parent: -1, Start: at(0), End: at(100)},
		{Name: "store.ingest", Parent: 0, Start: at(10), End: at(30)},
		{Name: "store.ingest", Parent: 0, Start: at(20), End: at(50)}, // overlaps its sibling
		{Name: "rtree.join", Parent: 0, Start: at(90), End: at(120)},  // ends after its parent
		{Name: "parser.parse", Parent: 1, Start: at(12), End: at(15)},
		{Name: "other.root", Parent: -1, Start: at(0), End: at(7)},
	}
	want := []time.Duration{at(50), at(17), at(30), at(30), at(3), at(7)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder
	if i := off.begin("x.y", 1, -1); i != -1 {
		t.Fatalf("nil recorder begin = %d, want -1", i)
	}
	off.end(0)
	if off.snapshot() != nil {
		t.Fatal("nil recorder recorded spans")
	}

	r := newRecorder()
	root := r.begin("bench.op", 7, -1)
	child := r.begin("store.read_tile", 7, root)
	r.begin("store.open", 7, root) // never ended, so left out of the snapshot
	r.end(child)
	r.end(root)
	got := r.snapshot()
	if len(got) != 2 || got[0].Name != "bench.op" || got[1].Parent != root || got[1].Op != 7 {
		t.Fatalf("snapshot = %+v, want the two closed spans", got)
	}
	if got[1].layer() != "store" {
		t.Errorf("layer of %q = %q", got[1].Name, got[1].layer())
	}
}

// contentIDs stores each dataset the way PUT /datasets does and returns the
// store's content IDs.
func contentIDs(t *testing.T, data []dataset) []string {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, d := range data {
		w, err := st.NewWriter(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, tl := range d.Tiles {
			a, err := parser.Parse(tl.RawA)
			if err != nil {
				t.Fatal(err)
			}
			b, err := parser.Parse(tl.RawB)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.AddTile(imageName, tl.Index, a, b); err != nil {
				t.Fatal(err)
			}
		}
		man, err := w.Commit()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, man.ID)
	}
	return ids
}

func TestSeedDeterminism(t *testing.T) {
	inputs := func(seed int64) []dataset {
		data := append(crossDatasets(seed), matrixDatasets(seed)...)
		pool := ingestPool(seed)
		return append(data, ingestDataset(pool, 0), ingestDataset(pool, 1))
	}
	first, again, other := contentIDs(t, inputs(3)), contentIDs(t, inputs(3)), contentIDs(t, inputs(4))
	seen := make(map[string]bool)
	for i := range first {
		if first[i] != again[i] {
			t.Errorf("dataset %d: seed 3 gave content IDs %s and %s", i, first[i], again[i])
		}
		if seen[first[i]] {
			t.Errorf("dataset %d: content ID %s repeats within one seed", i, first[i])
		}
		seen[first[i]] = true
	}
	for i := range other {
		if seen[other[i]] {
			t.Errorf("dataset %d: seed 4 repeats a content ID of seed 3", i)
		}
	}
}

func TestUploadTemplates(t *testing.T) {
	pool := ingestPool(1)
	up, err := newUploads(pool)
	if err != nil {
		t.Fatal(err)
	}
	size := ingestDataset(pool, 0).rawBytes()
	for _, k := range []int{0, 1, uploadGrid - 1, uploadGrid, 4321, uploadGrid*uploadGrid - 1} {
		want, got := ingestDataset(pool, k), up.dataset(k)
		for i := range want.Tiles {
			if string(got.Tiles[i].RawA) != string(want.Tiles[i].RawA) || string(got.Tiles[i].RawB) != string(want.Tiles[i].RawB) {
				t.Fatalf("upload %d tile %d: template text differs from the encoded translated polygons", k, i)
			}
		}
		if want.rawBytes() != size {
			t.Errorf("upload %d has %d bytes of text, upload 0 has %d", k, want.rawBytes(), size)
		}
	}
}

func TestCheckMatrix(t *testing.T) {
	exact := &jobReport{Similarity: 0.75, Intersecting: 3, Candidates: 4}
	zero := &jobReport{}
	standalone := [][]*jobReport{{nil, exact, zero}, {nil, nil, zero}, {nil, nil, nil}}
	bound := func(v float64) *float64 { return &v }
	grid := func(c01, c02, c12 matrixCell) matrixStatus {
		cells := make([][]matrixCell, 3)
		for i := range cells {
			cells[i] = make([]matrixCell, 3)
		}
		cells[0][1], cells[0][2], cells[1][2] = c01, c02, c12
		return matrixStatus{Cells: cells}
	}
	done := matrixCell{State: "done", Similarity: 0.75, Intersect: 3, Candidates: 4}
	skipped := matrixCell{State: "skipped", Bound: bound(0)}
	for _, tc := range []struct {
		name string
		st   matrixStatus
		ok   bool
	}{
		{"all answers match", grid(done, skipped, skipped), true},
		{"exact cell differs", grid(matrixCell{State: "done", Similarity: 0.7500000000000001, Intersect: 3, Candidates: 4}, skipped, skipped), false},
		{"bound below the exact similarity", grid(matrixCell{State: "bounded", Bound: bound(0.5)}, skipped, skipped), false},
		{"bound at the exact similarity", grid(matrixCell{State: "bounded", Bound: bound(0.75)}, skipped, skipped), true},
		{"failed cell", grid(done, matrixCell{State: "failed"}, skipped), false},
	} {
		if got := checkMatrix(tc.st, standalone); (got == "") != tc.ok {
			t.Errorf("%s: checkMatrix = %q", tc.name, got)
		}
	}
}
