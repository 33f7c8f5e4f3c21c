package batchq

import (
	"sync"
	"testing"
	"time"
)

// base returns the address of s's backing array, or nil when it has none.
func base[T any](s []T) *T {
	if cap(s) == 0 {
		return nil
	}
	return &s[:cap(s)][0]
}

func put[T any](q *Queue[T], v T) bool { return q.Put(func() T { return v }) }

// TestEmptySwapLeavesSpare pins the check that the completion dispatcher
// once lacked: a Swap that finds the queue empty must not install the
// spare as the live buffer, or the two end up on one array.
func TestEmptySwapLeavesSpare(t *testing.T) {
	q := New[int](0)
	put(q, 1)
	b := q.Swap()
	if got := q.Swap(); got != nil {
		t.Fatalf("Swap on a drained queue returned %v", got)
	}
	spare := base(q.spare)
	if spare == nil || spare != base(b) {
		t.Fatal("Swap did not keep the drained batch as the spare")
	}
	if got := q.Swap(); got != nil {
		t.Fatalf("Swap on an empty queue returned %v", got)
	}
	if base(q.spare) != spare {
		t.Fatal("empty Swap touched the spare")
	}
	if base(q.buf) != nil && base(q.buf) == spare {
		t.Fatal("empty Swap put the live buffer on the spare's array")
	}
}

// TestBatchNeverAliasesLive drives the drain cycle through every order of
// non-empty and empty swaps and checks that a batch the caller holds
// never shares its backing array with the buffer producers append to —
// the aliasing behind the lost-completion race.
func TestBatchNeverAliasesLive(t *testing.T) {
	q := New[int](0)
	next := 0
	for round := 0; round < 64; round++ {
		for i := 0; i < round%3; i++ {
			next++
			put(q, next)
		}
		b := q.Swap()
		if b == nil {
			continue
		}
		want := append([]int(nil), b...)
		// Producers keep appending while the batch is being worked.
		for i := 0; i < round%4+1; i++ {
			next++
			put(q, next)
			if base(q.buf) == base(b) {
				t.Fatalf("round %d: live buffer shares the held batch's array", round)
			}
		}
		for i := range want {
			if b[i] != want[i] {
				t.Fatalf("round %d: held batch changed under a Put: %v, want %v", round, b, want)
			}
		}
		if round%2 == 0 {
			for q.Swap() != nil { // drain fully
			}
			if got := q.Swap(); got != nil {
				t.Fatalf("round %d: drained queue returned %v", round, got)
			}
		}
	}
}

// TestFIFO: items come out in the order Put numbered them, across swaps.
func TestFIFO(t *testing.T) {
	q := New[int](0)
	var got []int
	n := 0
	for i := 0; i < 100; i++ {
		q.Put(func() int { n++; return n })
		if i%7 == 0 {
			got = append(got, q.Swap()...)
		}
	}
	got = append(got, q.Swap()...)
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("position %d holds %d", i, v)
		}
	}
	if len(got) != 100 {
		t.Fatalf("drained %d items, want 100", len(got))
	}
}

func TestSwapClearsAndCapsSpare(t *testing.T) {
	q := New[*int](0)
	x := 1
	put(q, &x)
	b := q.Swap()
	q.Swap()
	if b[0] != nil {
		t.Fatal("Swap left a reference in the recycled spare")
	}
	big := New[byte](0)
	big.Push(make([]byte, spareCap+1)...)
	big.Swap()
	big.Swap()
	if big.spare != nil {
		t.Fatalf("kept a %d-byte spare over the %d-byte cap", cap(big.spare), spareCap)
	}
}

func TestSealFailsPuts(t *testing.T) {
	q := New[int](0)
	put(q, 1)
	q.Seal()
	called := false
	if q.Put(func() int { called = true; return 2 }) || called {
		t.Fatal("Put succeeded (or ran mk) on a sealed queue")
	}
	if _, ok := q.Push(3); ok {
		t.Fatal("Push succeeded on a sealed queue")
	}
	if b := q.Swap(); len(b) != 1 || b[0] != 1 {
		t.Fatalf("sealing dropped queued items: %v", b)
	}
}

// TestBoundBlocksUntilSwapOrSeal: with a drainer working, a Push at the
// bound waits; a Swap frees it, and so does Seal, which fails the push.
func TestBoundBlocksUntilSwapOrSeal(t *testing.T) {
	q := New[int](2)
	if lead, ok := q.Push(1, 2); !lead || !ok {
		t.Fatal("first push did not lead")
	}
	if _, ok := q.TryPush(3); ok {
		t.Fatal("TryPush appended past the bound while a drainer was active")
	}
	pushed := make(chan bool, 1)
	go func() { _, ok := q.Push(3); pushed <- ok }()
	select {
	case <-pushed:
		t.Fatal("Push past the bound did not wait")
	case <-time.After(50 * time.Millisecond):
	}
	q.Swap()
	if ok := <-pushed; !ok {
		t.Fatal("Push released by Swap failed")
	}

	q.Push(4) // back at the bound
	go func() { _, ok := q.Push(5); pushed <- ok }()
	select {
	case <-pushed:
		t.Fatal("Push past the bound did not wait")
	case <-time.After(50 * time.Millisecond):
	}
	q.Seal()
	select {
	case ok := <-pushed:
		if ok {
			t.Fatal("Push released by Seal reported success")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Seal did not wake the blocked pusher")
	}
}

func TestWaitIdle(t *testing.T) {
	q := New[int](0)
	if !q.WaitIdle(time.Second) {
		t.Fatal("fresh queue not idle")
	}
	q.Push(1)
	if q.WaitIdle(20 * time.Millisecond) {
		t.Fatal("idle reported with a drainer holding the lead")
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		for q.Swap() != nil {
		}
	}()
	if !q.WaitIdle(5 * time.Second) {
		t.Fatal("WaitIdle missed the drainer retiring")
	}
	q.Push(2)
	go q.Seal()
	start := time.Now()
	if q.WaitIdle(5*time.Second) || time.Since(start) > 4*time.Second {
		t.Fatal("WaitIdle did not return at Seal")
	}
}

// TestDrainerRetiresOnlyWhenEmpty: an item pushed while the drainer works
// its batch keeps the drainer on duty, and the push after it retires leads.
func TestDrainerRetiresOnlyWhenEmpty(t *testing.T) {
	q := New[int](0)
	if lead, _ := q.Push(1); !lead {
		t.Fatal("push onto an idle queue did not lead")
	}
	b := q.Swap()
	if lead, _ := q.Push(2); lead {
		t.Fatal("push behind an active drainer led")
	}
	if b = q.Swap(); len(b) != 1 || b[0] != 2 {
		t.Fatalf("second batch %v, want [2]", b)
	}
	if lead, _ := q.Push(3); lead {
		t.Fatal("push behind a drainer holding a batch led")
	}
	if b = q.Swap(); len(b) != 1 || b[0] != 3 {
		t.Fatalf("third batch %v, want [3]", b)
	}
	if b = q.Swap(); b != nil {
		t.Fatalf("drained queue returned %v", b)
	}
	if lead, _ := q.Push(4); !lead {
		t.Fatal("push after the drainer retired did not lead")
	}
}

// TestLeadHandoff hammers the drainer hand-off: many pushers, each leader
// draining until Swap finds the queue empty. Every item must be drained
// exactly once and nothing left queued without a drainer. Run it under
// -race -count=50.
func TestLeadHandoff(t *testing.T) {
	const pushers, each = 8, 500
	q := New[int](16)
	var mu sync.Mutex
	seen := make(map[int]int)
	drain := func() {
		for b := q.Swap(); b != nil; b = q.Swap() {
			mu.Lock()
			for _, v := range b {
				seen[v]++
			}
			mu.Unlock()
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if lead, ok := q.Push(p*each + i); !ok {
					t.Error("push failed on an open queue")
					return
				} else if lead {
					drain()
				}
			}
		}(p)
	}
	wg.Wait()
	if n := q.Len(); n != 0 {
		t.Fatalf("%d items stranded with no drainer", n)
	}
	if !q.WaitIdle(time.Second) {
		t.Fatal("queue not idle after every pusher returned")
	}
	if len(seen) != pushers*each {
		t.Fatalf("drained %d distinct items, want %d", len(seen), pushers*each)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("item %d drained %d times", v, n)
		}
	}
}
