// Package des is a deterministic process-oriented discrete-event simulation
// kernel. The system-level experiments of the paper (Table 1, Figs. 11-12)
// evaluate pipeline schemes on platforms — a 4-core workstation with a GTX
// 580, an 8-core EC2 instance with two Tesla M2050s — that the reproduction
// host does not have; package pipesim models those runs on this kernel using
// service times calibrated from real single-core measurements and the GPU
// simulator.
//
// Processes are goroutines that advance a shared virtual clock through
// blocking primitives (Delay, Queue.Put/Get, Resource.Acquire). Exactly one
// process runs at a time and events fire in deterministic (time, sequence)
// order, so simulations are exactly reproducible.
package des

import (
	"container/heap"
	"fmt"
)

// Sim is one simulation instance. Create with New, add processes with
// Spawn, then call Run.
type Sim struct {
	now    float64
	seq    int64
	events eventHeap
	ack    chan struct{}
	// blocked counts processes parked on conditions (not timers); used to
	// detect modelling deadlocks.
	liveProcs int
}

type event struct {
	t   float64
	seq int64
	p   *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// New creates an empty simulation.
func New() *Sim {
	return &Sim{ack: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Proc is a simulated process: the handle its body uses to block on virtual
// time and synchronisation objects.
type Proc struct {
	sim    *Sim
	name   string
	resume chan struct{}
	// pending guards against duplicate wake events: at most one resume
	// event may be in flight per process.
	pending bool
}

// Name returns the process name (for diagnostics).
func (p *Proc) Name() string { return p.name }

// Sim returns the owning simulation.
func (p *Proc) Sim() *Sim { return p.sim }

// Spawn registers a process that starts at the current virtual time.
func (s *Sim) Spawn(name string, fn func(*Proc)) {
	p := &Proc{sim: s, name: name, resume: make(chan struct{})}
	s.liveProcs++
	go func() {
		<-p.resume
		fn(p)
		s.liveProcs--
		s.ack <- struct{}{}
	}()
	s.schedule(s.now, p)
}

// schedule enqueues a wakeup for p at time t; duplicate wakeups for a
// process with an in-flight event are dropped (the process re-checks its
// blocking condition on resume anyway).
func (s *Sim) schedule(t float64, p *Proc) {
	if p.pending {
		return
	}
	p.pending = true
	s.seq++
	heap.Push(&s.events, event{t: t, seq: s.seq, p: p})
}

// Run executes the simulation until no events remain, returning the final
// virtual time. It returns an error if processes remain blocked on
// conditions with no pending events — a modelling deadlock.
func (s *Sim) Run() (float64, error) {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(event)
		if e.t < s.now {
			return s.now, fmt.Errorf("des: time went backwards: %v < %v", e.t, s.now)
		}
		s.now = e.t
		e.p.pending = false
		e.p.resume <- struct{}{}
		<-s.ack
	}
	if s.liveProcs > 0 {
		return s.now, fmt.Errorf("des: deadlock: %d processes blocked with no pending events", s.liveProcs)
	}
	return s.now, nil
}

// park suspends the calling process until another event resumes it. The
// scheduler regains control.
func (p *Proc) park() {
	p.sim.ack <- struct{}{}
	<-p.resume
}

// Delay advances the process by d seconds of virtual time.
func (p *Proc) Delay(d float64) {
	if d < 0 {
		d = 0
	}
	p.sim.schedule(p.sim.now+d, p)
	p.park()
}

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.sim.now }

// wake schedules a parked process to resume at the current time.
func (s *Sim) wake(p *Proc) { s.schedule(s.now, p) }

// Queue is a bounded FIFO connecting simulated processes, mirroring the
// pipeline's inter-stage work buffers: Put blocks when full, Get blocks when
// empty, Close releases blocked getters. StealMin supports the migration
// policy.
type Queue[T any] struct {
	sim     *Sim
	items   []T
	cap     int
	closed  bool
	getters []*Proc
	putters []*Proc
	// FullSignal and EmptySignal, when non-nil, are woken on
	// full/found-empty transitions (migration triggers).
	FullSignal  func()
	EmptySignal func()
}

// NewQueue creates a bounded queue for the simulation.
func NewQueue[T any](s *Sim, capacity int) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{sim: s, cap: capacity}
}

// Len returns current occupancy.
func (q *Queue[T]) Len() int { return len(q.items) }

// IsFull reports occupancy at capacity.
func (q *Queue[T]) IsFull() bool { return len(q.items) >= q.cap }

// Closed reports whether Close was called.
func (q *Queue[T]) Closed() bool { return q.closed }

// removeProc deletes every occurrence of p from list (processes deregister
// after each park so stale entries can never wake a finished process).
func removeProc(list []*Proc, p *Proc) []*Proc {
	out := list[:0]
	for _, x := range list {
		if x != p {
			out = append(out, x)
		}
	}
	return out
}

// Put appends v, blocking the process while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for len(q.items) >= q.cap && !q.closed {
		if q.FullSignal != nil {
			q.FullSignal()
		}
		q.putters = append(q.putters, p)
		p.park()
		q.putters = removeProc(q.putters, p)
	}
	if q.closed {
		panic("des: Put on closed queue")
	}
	q.items = append(q.items, v)
	if len(q.items) >= q.cap && q.FullSignal != nil {
		q.FullSignal()
	}
	q.wakeGetters()
}

// Get removes the head item, blocking while the queue is empty; ok is false
// once the queue is closed and drained.
func (q *Queue[T]) Get(p *Proc) (v T, ok bool) {
	for len(q.items) == 0 && !q.closed {
		if q.EmptySignal != nil {
			q.EmptySignal()
		}
		q.getters = append(q.getters, p)
		p.park()
		q.getters = removeProc(q.getters, p)
	}
	if len(q.items) == 0 {
		return v, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	q.wakePutters()
	return v, true
}

// TryGet removes the head item without blocking.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	v = q.items[0]
	q.items = q.items[1:]
	q.wakePutters()
	return v, true
}

// StealMin removes the item minimising weight without blocking.
func (q *Queue[T]) StealMin(weight func(T) float64) (v T, ok bool) {
	if len(q.items) == 0 {
		return v, false
	}
	best := 0
	bw := weight(q.items[0])
	for i := 1; i < len(q.items); i++ {
		if w := weight(q.items[i]); w < bw {
			best, bw = i, w
		}
	}
	v = q.items[best]
	q.items = append(q.items[:best], q.items[best+1:]...)
	q.wakePutters()
	return v, true
}

// Close marks the queue complete and releases blocked getters.
func (q *Queue[T]) Close() {
	q.closed = true
	q.wakeGetters()
	q.wakePutters()
}

func (q *Queue[T]) wakeGetters() {
	for _, g := range q.getters {
		q.sim.wake(g)
	}
	q.getters = q.getters[:0]
}

func (q *Queue[T]) wakePutters() {
	for _, w := range q.putters {
		q.sim.wake(w)
	}
	q.putters = q.putters[:0]
}

// Resource is a counted server (CPU cores, an exclusive GPU): Acquire
// blocks until a unit is free; Use is acquire-delay-release. Busy time is
// accumulated for utilisation reporting.
type Resource struct {
	sim     *Sim
	name    string
	cap     int
	inUse   int
	waiters []*Proc
	busy    float64
}

// NewResource creates a resource with capacity units.
func NewResource(s *Sim, name string, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{sim: s, name: name, cap: capacity}
}

// Acquire blocks until a unit is available and takes it.
func (r *Resource) Acquire(p *Proc) {
	for r.inUse >= r.cap {
		r.waiters = append(r.waiters, p)
		p.park()
		r.waiters = removeProc(r.waiters, p)
	}
	r.inUse++
}

// Release returns a unit and wakes one waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("des: Release of idle resource " + r.name)
	}
	r.inUse--
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.sim.wake(w)
	}
}

// Use occupies one unit for d seconds of virtual time.
func (r *Resource) Use(p *Proc, d float64) {
	r.Acquire(p)
	r.busy += d
	p.Delay(d)
	r.Release()
}

// UseAsync acquires a unit (blocking until one is free), then occupies it
// for d seconds in the background while the caller continues — the pattern
// of an aggregator dispatching batches across multiple devices.
func (r *Resource) UseAsync(p *Proc, d float64) {
	r.Acquire(p)
	r.busy += d
	r.sim.Spawn(r.name+"-async", func(c *Proc) {
		c.Delay(d)
		r.Release()
	})
}

// BusySeconds returns the summed busy time across units.
func (r *Resource) BusySeconds() float64 { return r.busy }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Trigger is a level-triggered wakeup for monitor processes (the paper's
// migration threads "usually stay in the sleeping state and are only woken
// up when the input buffer of the aggregator stage becomes full or empty").
// Fire arms the trigger and wakes the waiter; Await blocks until armed and
// consumes the arming. Stop releases a waiter permanently.
type Trigger struct {
	sim     *Sim
	armed   bool
	stopped bool
	waiter  *Proc
}

// NewTrigger creates a trigger for the simulation.
func NewTrigger(s *Sim) *Trigger { return &Trigger{sim: s} }

// Fire arms the trigger, waking the waiting process if any.
func (t *Trigger) Fire() {
	t.armed = true
	if t.waiter != nil {
		t.sim.wake(t.waiter)
	}
}

// Stop permanently releases waiters; Await returns false afterwards.
func (t *Trigger) Stop() {
	t.stopped = true
	if t.waiter != nil {
		t.sim.wake(t.waiter)
	}
}

// Await blocks the process until the trigger fires, consuming the arming.
// It returns false once the trigger is stopped. Only one process may await
// a given trigger.
func (t *Trigger) Await(p *Proc) bool {
	for !t.armed && !t.stopped {
		t.waiter = p
		p.park()
		t.waiter = nil
	}
	if t.armed {
		t.armed = false
		return true
	}
	return false
}
