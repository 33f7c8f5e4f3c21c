// Package batchq is the runtime's one swap queue: producers append under
// a lock held only for the append, and one drainer at a time swaps the
// backlog out and works through it outside the lock — the paper's manager
// collecting arriving calls and combining them (§2.7, §3). Put users
// serialize their drainer themselves; Push makes the first pusher that
// finds no drainer active the drainer, which calls Swap until it returns
// nil, so no item is ever left queued without a drainer.
package batchq

import (
	"sync"
	"time"
	"unsafe"
)

// spareCap is the largest buffer, in bytes, kept for the next swap, so one
// burst does not pin a huge buffer forever.
const spareCap = 1 << 20

// Queue is a swap queue of T. Create it with New.
type Queue[T any] struct {
	mu      sync.Mutex
	cond    sync.Cond // L = &mu: pushers waiting on the bound, WaitIdle
	buf     []T
	bound   int
	sealed  bool
	leading bool // a Push caller holds the drainer role

	// Owned by the drainer: the batch it holds and the buffer the next
	// swap installs. Successive drainers are ordered by mu.
	held, spare []T
}

// New returns an empty queue. A positive bound makes Push wait while
// bound or more items are queued and a drainer is at work, so a slow
// drainer pushes back on its producers; zero means unbounded.
func New[T any](bound int) *Queue[T] {
	q := &Queue[T]{bound: bound}
	q.cond.L = &q.mu
	return q
}

// Put appends the value mk returns. mk runs under the queue lock, so
// values it numbers enter the queue in that order. Put reports false,
// without calling mk, once the queue is sealed.
func (q *Queue[T]) Put(mk func() T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.sealed {
		q.buf = append(q.buf, mk())
	}
	return !q.sealed
}

// Push appends items, first waiting while the queue is full. lead reports
// that no drainer was active and the caller has become it. ok is false,
// with nothing appended, once the queue is sealed.
func (q *Queue[T]) Push(items ...T) (lead, ok bool) { return q.push(items, true) }

// TryPush is Push without the wait: a full queue reports ok=false.
func (q *Queue[T]) TryPush(items ...T) (lead, ok bool) { return q.push(items, false) }

func (q *Queue[T]) push(items []T, wait bool) (lead, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// With no drainer active the pusher appends past the bound: it is
	// about to become the drainer, so waiting would deadlock.
	for q.bound > 0 && len(q.buf) >= q.bound && q.leading && !q.sealed {
		if !wait {
			return false, false
		}
		q.cond.Wait()
	}
	if q.sealed {
		return false, false
	}
	q.buf = append(q.buf, items...)
	lead, q.leading = !q.leading, true
	return lead, true
}

// Swap returns the queued items, or nil when nothing is queued, which
// also ends a Push drainer's turn. Each Swap takes back the batch the
// previous one returned, so the drainer must be done with it. The empty
// check comes before the swap, so the live buffer never shares a backing
// array with a batch the drainer holds.
func (q *Queue[T]) Swap() []T {
	var zero T
	if b := q.held; cap(b) > 0 && uintptr(cap(b))*unsafe.Sizeof(zero) <= spareCap {
		clear(b) // drop references for the collector
		q.spare = b[:0]
	}
	q.held = nil
	q.mu.Lock()
	batch := q.buf
	if len(batch) == 0 {
		retired := q.leading
		q.leading = false
		q.mu.Unlock()
		if retired {
			q.cond.Broadcast() // WaitIdle
		}
		return nil
	}
	q.buf, q.spare, q.held = q.spare, nil, batch
	q.mu.Unlock()
	if q.bound > 0 {
		q.cond.Broadcast() // pushers waiting on the bound
	}
	return batch
}

// Seal fails every later Put and Push and wakes pushers waiting on the
// bound. Items already queued stay for the drainer.
func (q *Queue[T]) Seal() {
	q.mu.Lock()
	q.sealed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Len reports how many items are queued.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// WaitIdle waits up to d, or until the queue is sealed, for nothing to be
// queued and no drainer to be at work, and reports whether that happened.
func (q *Queue[T]) WaitIdle(d time.Duration) bool {
	expired := false
	t := time.AfterFunc(d, func() {
		q.mu.Lock()
		expired = true
		q.mu.Unlock()
		q.cond.Broadcast()
	})
	defer t.Stop()
	q.mu.Lock()
	defer q.mu.Unlock()
	for (len(q.buf) > 0 || q.leading) && !q.sealed && !expired {
		q.cond.Wait()
	}
	return len(q.buf) == 0 && !q.leading
}
