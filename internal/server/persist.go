package server

// Persistent result cache: content-hash → report JSON stored beside the
// dataset manifests (under <data-dir>/cache/), so a restarted daemon
// answers repeat jobs — and repeat matrix cells — without recompute. The
// in-memory LRU stays the first-level cache (it carries live job IDs and
// single-flight semantics); the disk layer is the durable second level,
// written when a cache-keyed job completes and loaded wholesale on boot.
//
// Entries are validated on load the way manifests are: a corrupt entry is
// skipped with a logged reason, never served. Validation re-folds the
// report's per-tile ratio partials in canonical order and requires the fold
// to reproduce the stored ratio sum, pair counts, and similarity exactly —
// the same invariant that makes sharded execution bit-deterministic makes a
// tampered or torn cache entry detectable.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/pipeline"
)

// persistEntry is one cached result on disk.
type persistEntry struct {
	// Key is the result-cache key (content-hash derived); the entry's file
	// name is the SHA-256 of this key, and load rejects entries whose key
	// does not hash back to the file that held them.
	Key    string          `json:"key"`
	Name   string          `json:"name,omitempty"`
	Cross  *CrossPayload   `json:"cross,omitempty"`
	Saved  time.Time       `json:"saved"`
	Report pipeline.Result `json:"report"`

	// used is in-process recency for the LRU entry bound; boot seeds it from
	// Saved. Never serialized.
	used time.Time `json:"-"`
}

// reportDisk is the on-disk cache: an in-memory index over one JSON file
// per entry, loaded at boot. With max > 0 the entry count is bounded:
// put evicts least-recently-used entries past the cap, and the retention
// sweeper can re-enforce it via EnforceLimit.
type reportDisk struct {
	dir string
	max int // entry cap; 0 = unbounded
	// keep, when set, gates put: an entry whose key it rejects is not
	// stored. The server wires it to dataset liveness, and the check runs
	// inside put's critical section — the same mutex the delete cascade's
	// dropDataset takes — so a persister racing a dataset delete can never
	// insert after the cascade looked (if the delete committed first, keep
	// sees the dataset gone; if put won, the cascade drops the entry).
	keep func(key string) bool

	mu      sync.Mutex
	entries map[string]*persistEntry
}

// entryFile names the file holding key's entry.
func entryFile(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:]) + ".json"
}

// openReportDisk loads the cache directory (creating it if needed) and
// returns the skip reasons of entries that failed validation. maxEntries
// bounds the live entry count at put time (0 = unbounded); the caller
// enforces it over preexisting entries AFTER dropping orphans, so dead
// entries never occupy cap slots at the expense of live ones.
func openReportDisk(dir string, maxEntries int) (*reportDisk, []error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, []error{fmt.Errorf("create cache dir %s: %w", dir, err)}
	}
	rd := &reportDisk{dir: dir, max: maxEntries, entries: make(map[string]*persistEntry)}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, []error{fmt.Errorf("scan cache dir %s: %w", dir, err)}
	}
	var skipped []error
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			skipped = append(skipped, fmt.Errorf("cache entry %s: %w", name, err))
			continue
		}
		var e persistEntry
		if err := json.Unmarshal(raw, &e); err != nil {
			skipped = append(skipped, fmt.Errorf("cache entry %s: %w", name, err))
			continue
		}
		if err := validateEntry(&e); err != nil {
			skipped = append(skipped, fmt.Errorf("cache entry %s: %w", name, err))
			continue
		}
		if entryFile(e.Key) != name {
			skipped = append(skipped, fmt.Errorf("cache entry %s: key does not hash to its file name", name))
			continue
		}
		e.used = e.Saved
		rd.entries[e.Key] = &e
	}
	return rd, skipped
}

// validateEntry rejects reports that cannot have been produced by the
// pipeline: the per-tile partials must re-fold, in canonical order, to the
// stored aggregate exactly.
func validateEntry(e *persistEntry) error {
	if e.Key == "" {
		return errors.New("missing cache key")
	}
	r := &e.Report
	if math.IsNaN(r.Similarity) || math.IsInf(r.Similarity, 0) {
		return errors.New("similarity is not finite")
	}
	if r.Intersecting < 0 || r.Candidates < 0 || r.Intersecting > r.Candidates {
		return errors.New("pair counts are inconsistent")
	}
	if len(r.TileRatios) > 0 {
		var sum float64
		hits := 0
		for i, tr := range r.TileRatios {
			if i > 0 {
				prev := r.TileRatios[i-1]
				if tr.Image < prev.Image || (tr.Image == prev.Image && tr.Tile <= prev.Tile) {
					return errors.New("tile partials out of canonical order")
				}
			}
			sum += tr.RatioSum
			hits += tr.Intersecting
		}
		if hits != r.Intersecting {
			return fmt.Errorf("tile partials carry %d intersecting pairs, report says %d", hits, r.Intersecting)
		}
		if sum != r.RatioSum {
			return errors.New("tile partials do not fold to the report's ratio sum")
		}
	}
	if r.Intersecting > 0 {
		if r.Similarity != r.RatioSum/float64(r.Intersecting) {
			return errors.New("similarity does not equal ratio sum over intersecting pairs")
		}
	} else if r.Similarity != 0 {
		return errors.New("nonzero similarity with no intersecting pairs")
	}
	return nil
}

// get returns the entry cached for key, refreshing its recency.
func (rd *reportDisk) get(key string) (*persistEntry, bool) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	e, ok := rd.entries[key]
	if ok {
		e.used = time.Now()
	}
	return e, ok
}

// len returns the live entry count.
func (rd *reportDisk) len() int {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	return len(rd.entries)
}

// put records the entry in memory and writes it to disk atomically (temp
// file + rename, fsynced, like the store's manifests). The temp file lives
// beside the cache directory, not in it, so the directory only ever holds
// complete entries — a concurrent boot over the same store never sees a
// half-written one. The disk write runs outside the lock — lookups must
// not stall behind an fsync — which is safe because two concurrent puts of
// one key hold bit-identical reports (the key is a content address), so
// either rename wins harmlessly. The in-memory index is updated even when
// the write fails: the entry is still valid for this process, it just
// won't survive a restart.
func (rd *reportDisk) put(e *persistEntry) error {
	raw, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("encode cache entry: %w", err)
	}
	rd.mu.Lock()
	if rd.keep != nil && !rd.keep(e.Key) {
		rd.mu.Unlock()
		return nil // the entry's dataset is gone; nothing to persist
	}
	e.used = time.Now()
	rd.entries[e.Key] = e
	if rd.max > 0 {
		rd.enforceLocked(rd.max)
	}
	rd.mu.Unlock()
	f, err := os.CreateTemp(filepath.Dir(rd.dir), "cache-tmp-*")
	if err != nil {
		return fmt.Errorf("write cache entry: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(raw); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(rd.dir, entryFile(e.Key)))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("write cache entry: %w", err)
	}
	// Reconcile: the key may have been dropped (delete cascade, clear, LRU
	// eviction) while the bytes were in flight, in which case the rename
	// just orphaned a file the index no longer tracks — remove it. A
	// *replaced* entry (another put of the same key) is left alone: the key
	// is a content address, so the file bytes serve the new entry exactly.
	rd.mu.Lock()
	if _, ok := rd.entries[e.Key]; !ok {
		os.Remove(filepath.Join(rd.dir, entryFile(e.Key)))
	}
	rd.mu.Unlock()
	return nil
}

// removeLocked drops one entry from the index and from disk. Callers hold mu.
func (rd *reportDisk) removeLocked(key string) {
	if _, ok := rd.entries[key]; !ok {
		return
	}
	delete(rd.entries, key)
	os.Remove(filepath.Join(rd.dir, entryFile(key)))
}

// enforceLocked evicts least-recently-used entries until at most max remain,
// returning how many were dropped. Callers hold mu.
func (rd *reportDisk) enforceLocked(max int) int {
	over := len(rd.entries) - max
	if over <= 0 {
		return 0
	}
	type rec struct {
		key  string
		used time.Time
	}
	order := make([]rec, 0, len(rd.entries))
	for k, e := range rd.entries {
		order = append(order, rec{key: k, used: e.used})
	}
	sort.Slice(order, func(i, j int) bool {
		if !order[i].used.Equal(order[j].used) {
			return order[i].used.Before(order[j].used)
		}
		return order[i].key < order[j].key
	})
	for _, r := range order[:over] {
		rd.removeLocked(r.key)
	}
	return over
}

// EnforceLimit evicts least-recently-used entries beyond max. It is the
// retention engine's cache hook (see retention.Cache).
func (rd *reportDisk) EnforceLimit(max int) int {
	if max < 0 {
		max = 0
	}
	rd.mu.Lock()
	defer rd.mu.Unlock()
	return rd.enforceLocked(max)
}

// retain keeps only entries whose key the predicate accepts, dropping the
// rest from memory and disk; it returns how many were dropped. The server
// runs it at boot against the store's recovered datasets, so a crash between
// a dataset delete and its cache cascade can never resurrect the report.
func (rd *reportDisk) retain(keep func(key string) bool) int {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	dropped := 0
	for k := range rd.entries {
		if !keep(k) {
			rd.removeLocked(k)
			dropped++
		}
	}
	return dropped
}

// dropDataset removes every entry whose key references the dataset — its
// single-dataset entry and every cross entry it participates in. This is the
// delete-cascade path.
func (rd *reportDisk) dropDataset(id string) int {
	return rd.retain(func(key string) bool {
		for _, ref := range keyDatasetIDs(key) {
			if ref == id {
				return false
			}
		}
		return true
	})
}

// clear empties the cache layer, removing every entry file.
func (rd *reportDisk) clear() int {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	n := len(rd.entries)
	for k := range rd.entries {
		rd.removeLocked(k)
	}
	return n
}
