package sched

import (
	"context"
	"errors"
	"testing"
)

// floodFinished submits n one-tile jobs behind a filler and cancels each
// while it is queued, so n jobs become terminal without running.
func floodFinished(t *testing.T, s *Scheduler, n int) []string {
	t.Helper()
	tasks := testTasks(t, 1)
	ids := make([]string, n)
	for i := range ids {
		id, err := s.Submit("flood", tasks)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if err := s.Cancel(id); err != nil {
			t.Fatalf("cancel %s: %v", id, err)
		}
		ids[i] = id
	}
	return ids
}

// TestHistoryIsBounded checks that only the newest maxTerminalJobs finished
// jobs stay readable, that older IDs answer ErrNotFound on every entry
// point, and that live jobs are never dropped.
func TestHistoryIsBounded(t *testing.T) {
	s := New(Config{Devices: 1})
	t.Cleanup(s.Close)
	filler := startFiller(t, s)
	const extra = 40
	ids := floodFinished(t, s, maxTerminalJobs+extra)

	for _, id := range ids[:extra] {
		if _, ok := s.Job(id); ok {
			t.Fatalf("job %s still readable after %d newer jobs finished", id, maxTerminalJobs)
		}
		if _, err := s.Wait(context.Background(), id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Wait(%s) = %v, want ErrNotFound", id, err)
		}
		if err := s.Cancel(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Cancel(%s) = %v, want ErrNotFound", id, err)
		}
	}
	for _, id := range ids[extra:] {
		if st, ok := s.Job(id); !ok || st.State != Canceled {
			t.Fatalf("job %s = %v (found %v), want a retained Canceled job", id, st.State, ok)
		}
	}
	jobs := s.Jobs()
	if len(jobs) != maxTerminalJobs+1 {
		t.Fatalf("Jobs() lists %d, want %d retained + the running filler", len(jobs), maxTerminalJobs)
	}
	if jobs[0].ID != filler || jobs[0].State != Running {
		t.Fatalf("Jobs()[0] = %s %s, want the running filler %s first", jobs[0].ID, jobs[0].State, filler)
	}
	for i, st := range jobs[1:] {
		if st.ID != ids[extra+i] {
			t.Fatalf("Jobs()[%d] = %s, want %s (submission order)", i+1, st.ID, ids[extra+i])
		}
	}
	if got := s.Stats().Canceled; got != int64(len(ids)) {
		t.Fatalf("Stats().Canceled = %d, want %d: counters must not shrink with the history", got, len(ids))
	}
}

// TestGroupStatusSurvivesEviction checks that a group's status is folded
// from its members as they finish, so it stays the same after the
// scheduler drops every member job.
func TestGroupStatusSurvivesEviction(t *testing.T) {
	s := New(Config{Devices: 1})
	t.Cleanup(s.Close)
	done, err := s.Submit("done", testTasks(t, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st, err := s.Wait(context.Background(), done); err != nil || st.State != Done {
		t.Fatalf("done member = %v, %v", st.State, err)
	}
	startFiller(t, s)
	queued1, err := s.Submit("queued1", testTasks(t, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	queued2, err := s.Submit("queued2", testTasks(t, 1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	g := s.NewGroup("run")
	for _, m := range []struct {
		id    string
		owned bool
	}{{done, false}, {queued1, true}, {queued2, true}} {
		if err := g.Add(m.id, m.owned); err != nil {
			t.Fatalf("Add(%s): %v", m.id, err)
		}
	}
	g.Seal()
	if st := g.Status(); st.Done != 1 || st.Queued != 2 || st.Terminal {
		t.Fatalf("before cancel: %+v, want 1 done, 2 queued, not terminal", st)
	}
	g.Cancel()
	want := g.Status()
	if want.Done != 1 || want.CanceledJobs != 2 || want.Tiles != 3 || !want.Terminal {
		t.Fatalf("after cancel: %+v, want 1 done, 2 canceled, 3 tiles, terminal", want)
	}

	floodFinished(t, s, maxTerminalJobs)
	for _, id := range []string{done, queued1, queued2} {
		if _, ok := s.Job(id); ok {
			t.Fatalf("member %s still held; the flood did not evict it", id)
		}
	}
	if got := g.Status(); got != want {
		t.Fatalf("after eviction: %+v\nwant %+v", got, want)
	}
	if err := s.NewGroup("late").Add(done, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Add(evicted job) = %v, want ErrNotFound", err)
	}
}

// TestGroupsBounded checks that the oldest terminal groups are dropped once
// more than maxGroups exist, while live groups stay listed.
func TestGroupsBounded(t *testing.T) {
	s := New(Config{Devices: 1})
	t.Cleanup(s.Close)
	live := s.NewGroup("live") // never sealed, so never terminal
	const total = maxGroups + 10
	var last *Group
	for i := 1; i < total; i++ {
		last = s.NewGroup("finished")
		last.Seal() // no members: terminal once sealed
	}
	groups := s.Groups()
	if len(groups) != maxGroups {
		t.Fatalf("Groups() lists %d, want %d", len(groups), maxGroups)
	}
	if groups[0].ID != live.ID() || groups[len(groups)-1].ID != last.ID() {
		t.Fatalf("Groups() spans %s..%s, want the live %s first and the newest %s last",
			groups[0].ID, groups[len(groups)-1].ID, live.ID(), last.ID())
	}
	if got := s.Stats().GroupsCreated; got != total {
		t.Fatalf("Stats().GroupsCreated = %d, want %d", got, total)
	}
}
