package rpc

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// parityBody is the one entry body both executors run: the mode parameter
// picks the outcome, and every run is counted.
func parityBody(execs *atomic.Int64, mode string) ([]any, error) {
	execs.Add(1)
	switch mode {
	case "overload":
		return nil, fmt.Errorf("shed: %w", core.ErrOverload)
	case "poison":
		return nil, fmt.Errorf("dead: %w", core.ErrObjectPoisoned)
	case "notleader":
		return nil, fmt.Errorf("follower: %w", ErrNotLeader)
	}
	return []any{mode}, nil
}

// asyncEcho is a core.Object running parityBody, wrapped to count the
// calls its CallAsync executor accepts.
type asyncEcho struct {
	*core.Object
	accepted atomic.Int64
}

func (a *asyncEcho) CallAsync(entry string, params []any, done func([]any, error)) bool {
	ok := a.Object.CallAsync(entry, params, done)
	if ok {
		a.accepted.Add(1)
	}
	return ok
}

// blockingEcho runs parityBody behind the plain Callable surface only, so
// the node serves it on the blocking executor.
type blockingEcho struct{ execs *atomic.Int64 }

func (b blockingEcho) CallCtx(_ context.Context, entry string, params ...any) ([]any, error) {
	if entry != "P" {
		return nil, fmt.Errorf("object X: call %q: %w", entry, core.ErrUnknownEntry)
	}
	return parityBody(b.execs, params[0].(string))
}

// parityCall is one request of a parity case; client "" is untracked.
type parityCall struct {
	entry, mode, client string
	seq                 uint64
}

// parityOutcome is everything a case observes: each response as the
// client sees it, the node's serve counters and the body executions.
type parityOutcome struct {
	Responses                                 []string
	DedupHits, DrainDrops, Overloads, Poisons uint64
	Execs                                     int64
}

// TestServeParity runs the same requests through both executors of the
// serve pipeline — a core.Object answered from its completion dispatcher,
// and a blocking-only published Callable — and requires identical
// responses and counters, pinned to the expected values so that both
// cannot agree on a wrong answer.
func TestServeParity(t *testing.T) {
	callP := func(mode, client string, seq uint64) parityCall { return parityCall{"P", mode, client, seq} }
	cases := []struct {
		name     string
		draining bool
		calls    []parityCall
		async    int64 // calls the CallAsync executor must accept
		want     parityOutcome
	}{
		{name: "success", calls: []parityCall{callP("hi", "", 0)}, async: 1,
			want: parityOutcome{Responses: []string{"[hi] kind=0"}, Execs: 1}},
		{name: "unknown-entry", calls: []parityCall{{"Q", "hi", "", 0}},
			want: parityOutcome{Responses: []string{fmt.Sprintf("[] kind=%d", errUnknownEntry)}}},
		{name: "draining", draining: true, calls: []parityCall{callP("hi", "", 0)},
			want: parityOutcome{Responses: []string{fmt.Sprintf("[] kind=%d", errClosed)}, DrainDrops: 1}},
		{name: "duplicate-replay", calls: []parityCall{callP("hi", "c", 1), callP("hi", "c", 1)}, async: 1,
			want: parityOutcome{Responses: []string{"[hi] kind=0", "[hi] kind=0"}, DedupHits: 1, Execs: 1}},
		{name: "not-leader-reexecutes", calls: []parityCall{callP("notleader", "c", 2), callP("notleader", "c", 2)}, async: 2,
			want: parityOutcome{Responses: []string{
				fmt.Sprintf("[] kind=%d", errNotLeader), fmt.Sprintf("[] kind=%d", errNotLeader)}, Execs: 2}},
		{name: "overload", calls: []parityCall{callP("overload", "", 0)}, async: 1,
			want: parityOutcome{Responses: []string{fmt.Sprintf("[] kind=%d", errOverload)}, Overloads: 1, Execs: 1}},
		{name: "poisoned", calls: []parityCall{callP("poison", "", 0)}, async: 1,
			want: parityOutcome{Responses: []string{fmt.Sprintf("[] kind=%d", errPoisoned)}, Poisons: 1, Execs: 1}},
	}
	run := func(t *testing.T, obj callable, execs *atomic.Int64, draining bool, calls []parityCall) parityOutcome {
		m := &Metrics{}
		node := NewNodeWith("parity", NodeOptions{Metrics: m, FlushGrace: -1})
		if err := node.PublishAs("X", obj); err != nil {
			t.Fatal(err)
		}
		c1, c2 := net.Pipe()
		srv := newLink(c2, node, node.hooks())
		cli := newLink(c1, nil, linkHooks{flushGrace: -1})
		defer func() {
			cli.close()
			srv.close()
			node.Close()
		}()
		node.draining.Store(draining)
		var out parityOutcome
		for _, c := range calls {
			res, err := cli.call(context.Background(), "X", c.entry, []any{c.mode}, c.client, c.seq)
			_, kind := encodeErr(err)
			out.Responses = append(out.Responses, fmt.Sprintf("%v kind=%d", res, kind))
		}
		out.DedupHits, out.DrainDrops = m.DedupHits.Value(), m.DrainDrops.Value()
		out.Overloads, out.Poisons = m.Overloads.Value(), m.Poisons.Value()
		out.Execs = execs.Load()
		return out
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var asyncExecs, blockingExecs atomic.Int64
			obj, err := core.New("X",
				core.WithEntry(core.EntrySpec{Name: "P", Params: 1, Results: 1, Array: 4,
					Body: func(inv *core.Invocation) error {
						res, err := parityBody(&asyncExecs, inv.Param(0).(string))
						if err == nil {
							inv.Return(res...)
						}
						return err
					}}))
			if err != nil {
				t.Fatal(err)
			}
			defer obj.Close()
			ae := &asyncEcho{Object: obj}

			async := run(t, ae, &asyncExecs, tc.draining, tc.calls)
			blocking := run(t, blockingEcho{&blockingExecs}, &blockingExecs, tc.draining, tc.calls)
			if !reflect.DeepEqual(async, blocking) {
				t.Fatalf("executors disagree:\n async    %+v\n blocking %+v", async, blocking)
			}
			if !reflect.DeepEqual(async, tc.want) {
				t.Fatalf("outcome %+v, want %+v", async, tc.want)
			}
			if got := ae.accepted.Load(); got != tc.async {
				t.Fatalf("CallAsync executor accepted %d calls, want %d", got, tc.async)
			}
		})
	}
}

// TestDrainGateCoversQueuedResponse pins the drain gate's rule on the
// CallAsync executor: a call stays counted in Node.Inflight until its
// response frame is queued or the link is dead. The completion
// dispatcher's send is non-blocking with a goroutine fallback, and the
// fallback used to run after the gate was already released — so with the
// write queue at its bound, Node.Close could count the call drained and
// tear its link down before the response was ever queued.
func TestDrainGateCoversQueuedResponse(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	obj, err := core.New("Echo",
		core.WithEntry(core.EntrySpec{Name: "P", Params: 1, Results: 1, Array: 2,
			Body: func(inv *core.Invocation) error {
				close(started)
				<-release
				inv.Return(inv.Param(0))
				return nil
			}}))
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	m := &Metrics{}
	node := NewNodeWith("gate", NodeOptions{Metrics: m, FlushGrace: -1})
	if err := node.Publish(obj); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	conn, peer := newStuckConn()
	defer peer.Close()
	l := newLink(conn, node, node.hooks())
	defer l.close()
	select {
	case <-conn.writing: // the hello's combiner is wedged inside Write
	case <-time.After(2 * time.Second):
		t.Fatal("combiner never started")
	}

	// Fill the write queue to its bound behind the wedged combiner, so the
	// response cannot be queued without blocking.
	fill := frame{Kind: frameResponse, ID: 1, Results: []any{strings.Repeat("x", 16<<10)}}
	enc, err := wire.AppendFrame(nil, &fill, l.table)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < (maxQueued+len(enc)-1)/len(enc); i++ {
		if err := l.send(&fill); err != nil {
			t.Fatal(err)
		}
	}
	queued := m.FramesSent.Value()

	// The peer's hello and one request: the read loop admits it into the
	// object's CallAsync executor.
	var hello bytes.Buffer
	if err := wire.WriteHello(&hello); err != nil {
		t.Fatal(err)
	}
	req := frame{Kind: frameRequest, ID: 7, Object: "Echo", Entry: "P", Params: []any{"hi"}}
	b, err := wire.AppendFrame(hello.Bytes(), &req, l.table)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = peer.Write(b) }()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the entry body")
	}
	if got := node.Inflight(); got != 1 {
		t.Fatalf("Inflight = %d while the body runs, want 1", got)
	}

	// Complete the call. Its response finds the queue at its bound; for
	// as long as it is not queued, the call must stay in flight.
	close(release)
	waitUntil(t, func() bool {
		st, _ := obj.EntryStats("P")
		return st.Completed == 1
	})
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if node.Inflight() == 0 && m.FramesSent.Value() == queued {
			t.Fatal("the call was counted drained before its response was queued")
		}
	}
	if got := m.FramesSent.Value(); got != queued {
		t.Fatalf("FramesSent = %d, want %d: a response was queued past the bound", got, queued)
	}

	// Link death is the other release: the response is undeliverable.
	l.shutdown(ErrLinkClosed)
	waitUntil(t, func() bool { return node.Inflight() == 0 })
}
