package core

import (
	"testing"
	"time"

	"repro/internal/testutil"
)

// TestCallAsyncCompletionDuringCallback pins the lost-completion race in
// the completion dispatcher: a call that completes while an earlier
// call's callback is still running must have its own callback fire once
// the earlier one returns. The dispatcher used to swap its queue before
// checking it for empty, leaving the live queue and the recycled batch on
// one array; the later completion was then written into the batch being
// iterated, wiped with it, and surfaced as a lost response or a nil-func
// panic.
func TestCallAsyncCompletionDuringCallback(t *testing.T) {
	o, err := New("A", WithEntry(EntrySpec{Name: "P", Params: 1, Results: 1, Body: echoBody}))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, o)

	completed := func(n uint64) func() bool {
		return func() bool {
			st, _ := o.EntryStats("P")
			return st.Completed >= n
		}
	}
	// One finished round trip first, so the dispatcher has drained a
	// batch and recycled its buffer before X arrives.
	warm := make(chan struct{})
	if !o.CallAsync("P", []Value{0}, func([]Value, error) { close(warm) }) {
		t.Fatal("CallAsync declined a plain entry")
	}
	<-warm

	xIn, xRelease := make(chan struct{}), make(chan struct{})
	o.CallAsync("P", []Value{1}, func([]Value, error) {
		close(xIn)
		<-xRelease
	})
	<-xIn // X's callback is running on the dispatcher

	yDone := make(chan []Value, 1)
	o.CallAsync("P", []Value{2}, func(res []Value, err error) {
		if err != nil {
			t.Errorf("Y: %v", err)
		}
		yDone <- res
	})
	testutil.WaitUntil(t, "Y to complete", completed(3))
	close(xRelease)

	select {
	case res := <-yDone:
		if len(res) != 1 || res[0] != 2 {
			t.Fatalf("Y's callback got %v, want [2]", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Y completed but its callback never fired: the completion was lost")
	}
}
