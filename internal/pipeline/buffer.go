package pipeline

import "sync"

// buffer is a bounded inter-stage work buffer. Unlike a plain channel it
// supports the two operations the paper's task-migration design needs
// (§4.2): observing fullness/emptiness transitions (the migration triggers)
// and stealing a selected task out of the middle of the buffer (the
// aggregator's migration thread "selects the smallest tasks from the input
// buffer").
//
// get callers (the GPU aggregators) claim first: while one is blocked
// waiting for an item, getMin and stealMin (the CPU side) leave new items to
// it, so a CPU returning from a batch cannot take a task out from under a
// woken GPU before it reacquires the lock.
type buffer[T any] struct {
	mu       sync.Mutex
	notFull  *sync.Cond
	notEmpty *sync.Cond
	items    []T
	capacity int
	closed   bool
	// getWaiting counts get callers blocked on an empty buffer.
	getWaiting int

	// fullCh and emptyCh receive non-blocking notifications when the
	// buffer becomes full / is found empty by a consumer, waking migration
	// workers.
	fullCh  chan struct{}
	emptyCh chan struct{}
}

func newBuffer[T any](capacity int) *buffer[T] {
	if capacity < 1 {
		capacity = 1
	}
	b := &buffer[T]{
		capacity: capacity,
		fullCh:   make(chan struct{}, 1),
		emptyCh:  make(chan struct{}, 1),
	}
	b.notFull = sync.NewCond(&b.mu)
	b.notEmpty = sync.NewCond(&b.mu)
	return b
}

func notify(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// put blocks until there is room, then appends item. Putting to a closed
// buffer panics (a pipeline wiring bug).
func (b *buffer[T]) put(item T) {
	b.mu.Lock()
	for len(b.items) >= b.capacity && !b.closed {
		notify(b.fullCh)
		b.notFull.Wait()
	}
	if b.closed {
		b.mu.Unlock()
		panic("pipeline: put on closed buffer")
	}
	b.items = append(b.items, item)
	if len(b.items) >= b.capacity {
		notify(b.fullCh)
	}
	// Broadcast: a woken getMin caller may have to keep waiting for a
	// blocked get caller, which must then be woken too.
	b.notEmpty.Broadcast()
	b.mu.Unlock()
}

// get blocks until an item is available or the buffer is closed and
// drained; ok is false in the latter case.
func (b *buffer[T]) get() (item T, ok bool) {
	b.mu.Lock()
	for len(b.items) == 0 && !b.closed {
		notify(b.emptyCh)
		b.getWaiting++
		b.notEmpty.Wait()
		b.getWaiting--
	}
	if len(b.items) == 0 {
		b.mu.Unlock()
		return item, false
	}
	item = b.items[0]
	var zero T
	b.items[0] = zero
	b.items = b.items[1:]
	b.notFull.Signal()
	if b.getWaiting == 0 && len(b.items) > 0 {
		b.notEmpty.Broadcast() // getMin callers held back for this get
	}
	b.mu.Unlock()
	return item, true
}

// tryGet takes an item without blocking.
func (b *buffer[T]) tryGet() (item T, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.items) == 0 {
		return item, false
	}
	item = b.items[0]
	var zero T
	b.items[0] = zero
	b.items = b.items[1:]
	b.notFull.Signal()
	return item, true
}

// stealMin removes and returns the item minimising weight; ok is false when
// the buffer is empty or a get caller is waiting. Migration threads use it
// to pull the smallest tasks (cheapest to execute on the slower device).
func (b *buffer[T]) stealMin(weight func(T) int) (item T, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.getWaiting > 0 {
		return item, false
	}
	return b.takeMinLocked(weight)
}

// getMin blocks until an item is available and no get caller is waiting
// (or the buffer is closed and drained, reporting ok=false) and removes the
// item minimising weight. It is the blocking form of stealMin used by the
// slower executors of the hybrid aggregator, which always prefer the
// cheapest task in the buffer.
func (b *buffer[T]) getMin(weight func(T) int) (item T, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for !b.closed && (len(b.items) == 0 || b.getWaiting > 0) {
		if len(b.items) == 0 {
			notify(b.emptyCh)
		}
		b.notEmpty.Wait()
	}
	return b.takeMinLocked(weight)
}

func (b *buffer[T]) takeMinLocked(weight func(T) int) (item T, ok bool) {
	if len(b.items) == 0 {
		return item, false
	}
	best := 0
	bestW := weight(b.items[0])
	for i := 1; i < len(b.items); i++ {
		if w := weight(b.items[i]); w < bestW {
			best, bestW = i, w
		}
	}
	item = b.items[best]
	b.items = append(b.items[:best], b.items[best+1:]...)
	b.notFull.Signal()
	return item, true
}

// close marks the buffer complete; blocked getters drain and return.
func (b *buffer[T]) close() {
	b.mu.Lock()
	b.closed = true
	b.notEmpty.Broadcast()
	b.notFull.Broadcast()
	b.mu.Unlock()
}

// len returns the current occupancy.
func (b *buffer[T]) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items)
}

// isFull reports whether the buffer is at capacity.
func (b *buffer[T]) isFull() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.items) >= b.capacity
}

// isDrained reports closed-and-empty.
func (b *buffer[T]) isDrained() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closed && len(b.items) == 0
}
