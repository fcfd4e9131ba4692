package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"

	"repro/internal/pathology"
	"repro/internal/pipeline"
	"repro/internal/sched"
)

// heldTasks is a task source whose Task blocks until release is closed, so
// a job over it holds its executor slot for as long as a test needs.
type heldTasks struct {
	tasks   []pipeline.FileTask
	release chan struct{}
}

func (h heldTasks) Len() int           { return len(h.tasks) }
func (h heldTasks) Weight(i int) int64 { return int64(len(h.tasks[i].RawA) + len(h.tasks[i].RawB)) }
func (h heldTasks) Task(i int) (pipeline.FileTask, error) {
	<-h.release
	return h.tasks[i], nil
}

// TestEvictedJobIsNotFoundAndRecomputes checks the server side of the
// bounded job history: once a finished job leaves the scheduler's history
// its ID answers 404, and a repeat of its request misses the result cache
// and recomputes the same report bit for bit.
func TestEvictedJobIsNotFoundAndRecomputes(t *testing.T) {
	_, s, ts := newTestServer(t, sched.Config{Devices: 1}, Options{})
	spec := pathology.Representative()
	spec.Tiles = 2
	req := JobRequest{Spec: &spec}

	resp, body := postJSON(t, ts.URL+"/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, body %s", resp.StatusCode, body)
	}
	var sub JobResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	first := pollDone(t, ts.URL, sub.ID)
	if first.State != "done" {
		t.Fatalf("first job ended %s: %s", first.State, first.Error)
	}

	// Hold the only slot and cancel queued jobs behind it until the first
	// job is older than the scheduler's whole retained history.
	tasks := pipeline.EncodeDataset(pathology.Generate(spec))
	release := make(chan struct{})
	stop := sync.OnceFunc(func() { close(release) })
	t.Cleanup(stop)
	if _, err := s.SubmitJob(heldTasks{tasks: tasks, release: release}, sched.JobOpts{Name: "held"}); err != nil {
		t.Fatalf("submit held job: %v", err)
	}
	for i := 0; i < 300; i++ {
		id, err := s.Submit("flood", tasks)
		if err != nil {
			t.Fatalf("submit flood %d: %v", i, err)
		}
		if err := s.Cancel(id); err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
		if _, err := s.Wait(context.Background(), id); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}
	if resp := getJSON(t, ts.URL+"/jobs/"+first.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET evicted job = %d, want 404", resp.StatusCode)
	}
	stop()

	resp, body = postJSON(t, ts.URL+"/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("repeat after eviction = %d (want 202, a recompute), body %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Cached || sub.ID == first.ID {
		t.Fatalf("repeat response = %+v, want a fresh uncached job", sub)
	}
	again := pollDone(t, ts.URL, sub.ID)
	if again.State != "done" {
		t.Fatalf("recompute ended %s: %s", again.State, again.Error)
	}
	if math.Float64bits(again.Report.Similarity) != math.Float64bits(first.Report.Similarity) ||
		again.Report.Intersecting != first.Report.Intersecting || again.Report.Candidates != first.Report.Candidates {
		t.Fatalf("recompute report %+v differs from the evicted job's %+v", again.Report, first.Report)
	}
}
