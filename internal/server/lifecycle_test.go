package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
)

// heldJob is a store-backed job held RUNNING inside its first tile read.
type heldJob struct {
	srv       *Server
	dir, url  string // data dir, server base URL
	datasetID string
	id        string
	release   func() // lets the job continue; idempotent
}

// holdJob starts a store-backed job with the persisted cache and query log
// on, and holds it RUNNING inside its first tile read until release.
func holdJob(t *testing.T) heldJob {
	t.Helper()
	dir := t.TempDir()
	st := testStoreAt(t, dir)
	man := ingestSpec(t, st, "lifecycle", 7, 2)
	srv, _, ts := newTestServer(t, sched.Config{Devices: 1}, Options{Store: st})
	if srv.persist == nil || srv.qlog == nil {
		t.Fatal("persisted cache and query log must both be on")
	}
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	st.SetReadHook(func(id string, tile int, n int64) {
		once.Do(func() {
			close(entered)
			<-gate
		})
		srv.qlog.ObserveRead(id, tile, n)
	})
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(gate) }) }
	t.Cleanup(release) // never leave the job blocked behind a failed test

	resp, body := postJSON(t, ts.URL+"/jobs", JobRequest{DatasetID: man.ID})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var jr JobResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(time.Minute):
		t.Fatal("job never read a tile")
	}
	return heldJob{srv: srv, dir: dir, url: ts.URL, datasetID: man.ID, id: jr.ID, release: release}
}

// shutdownAsync runs Shutdown in the background and checks it is still
// blocked on the held job a moment later.
func shutdownAsync(t *testing.T, srv *Server, ctx context.Context) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v while a job was still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	return done
}

func awaitShutdown(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Minute):
		t.Fatal("Shutdown did not return")
		return nil
	}
}

// snapshotDirs reads every file under dir's cache/ and querylog/.
func snapshotDirs(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, sub := range []string{"cache", "querylog"} {
		entries, err := os.ReadDir(filepath.Join(dir, sub))
		if err != nil {
			t.Fatalf("read %s: %v", sub, err)
		}
		for _, e := range entries {
			raw, err := os.ReadFile(filepath.Join(dir, sub, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[sub+"/"+e.Name()] = string(raw)
		}
	}
	return out
}

// querylogHas reports whether the on-disk query log holds a record for id.
func querylogHas(snap map[string]string, id string) bool {
	for name, raw := range snap {
		if strings.HasPrefix(name, "querylog/") && strings.Contains(raw, `"id":"`+id+`"`) {
			return true
		}
	}
	return false
}

// TestShutdownOwnsInFlightWork: Shutdown lets a running store-backed job
// finish, waits for its watcher to persist the report and append its
// query-log record, and afterwards nothing under the data dir changes; a
// second Shutdown is a no-op and intake answers as a closed scheduler.
func TestShutdownOwnsInFlightWork(t *testing.T) {
	h := holdJob(t)
	done := shutdownAsync(t, h.srv, context.Background())
	h.release()
	if err := awaitShutdown(t, done); err != nil {
		t.Fatalf("Shutdown = %v, want nil", err)
	}

	st, _ := h.srv.Scheduler().Job(h.id)
	if st.State != sched.Done {
		t.Fatalf("running job ended %s (%s), want done", st.State, st.Error)
	}
	before := snapshotDirs(t, h.dir)
	cached := 0
	for name := range before {
		if strings.HasPrefix(name, "cache/") && strings.HasSuffix(name, ".json") {
			cached++
		}
	}
	if cached != 1 {
		t.Fatalf("persisted entries after Shutdown = %d, want 1: %v", cached, before)
	}
	if !querylogHas(before, h.id) {
		t.Fatalf("query log lacks %s after Shutdown", h.id)
	}

	// Idempotent: even an expired context gets nil, because nothing is left
	// to stop.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := h.srv.Shutdown(expired); err != nil {
		t.Fatalf("second Shutdown = %v, want nil", err)
	}

	resp, body := postJSON(t, h.url+"/jobs", JobRequest{DatasetID: h.datasetID})
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), sched.ErrClosed.Error()) {
		t.Fatalf("POST /jobs after Shutdown = %d %s, want 503 %q", resp.StatusCode, body, sched.ErrClosed)
	}

	time.Sleep(50 * time.Millisecond)
	after := snapshotDirs(t, h.dir)
	if len(after) != len(before) {
		t.Fatalf("data dir changed after Shutdown: %d files -> %d", len(before), len(after))
	}
	for name, raw := range before {
		if after[name] != raw {
			t.Fatalf("%s changed after Shutdown", name)
		}
	}
}

// TestShutdownExpiredContextCancelsRunningJob: with ctx already over,
// Shutdown cancels the running job, yet returns ctx.Err() only after the
// job is terminal and its watcher has written the query-log record.
func TestShutdownExpiredContextCancelsRunningJob(t *testing.T) {
	h := holdJob(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := shutdownAsync(t, h.srv, ctx)
	h.release()
	if err := awaitShutdown(t, done); !errors.Is(err, context.Canceled) {
		t.Fatalf("Shutdown = %v, want context.Canceled", err)
	}
	st, _ := h.srv.Scheduler().Job(h.id)
	if st.State != sched.Canceled {
		t.Fatalf("running job ended %s, want canceled", st.State)
	}
	snap := snapshotDirs(t, h.dir)
	if !querylogHas(snap, h.id) {
		t.Fatalf("query log lacks %s: Shutdown returned before its watcher finished", h.id)
	}
	for name := range snap {
		if strings.HasPrefix(name, "cache/") {
			t.Fatalf("canceled job persisted %s", name)
		}
	}
}
