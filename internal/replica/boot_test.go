package replica

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/wal"
)

// The boot-election tests run with a 10 s election timeout and a 10 ms
// heartbeat: no member's normal [T, 2T) timeout can fire inside the
// test's window, so any election seen within a second came from the boot
// designee path (or, where the test says so, did not happen at all).
const (
	bootElection = 10 * time.Second
	bootBeat     = 10 * time.Millisecond
)

func bootOpts() groupOpts { return groupOpts{election: bootElection, beat: bootBeat} }

// durable returns o with a fresh wal.Store of its own, closed after the
// member that uses it.
func durable(t *testing.T, o groupOpts) groupOpts {
	t.Helper()
	store, err := wal.OpenStore(t.TempDir(), wal.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = store.Close() })
	o.store = store
	return o
}

// startDurableGroup is startGroup with a fresh store per member: only a
// durable member can be a boot designee.
func startDurableGroup(t *testing.T, nw *simnet.Network, ids []string, seed uint64, o groupOpts) []*member {
	t.Helper()
	peers := make(map[string]string, len(ids))
	for _, id := range ids {
		peers[id] = id
	}
	members := make([]*member, 0, len(ids))
	for _, id := range ids {
		members = append(members, startMember(t, nw, id, peers, seed, durable(t, o)))
	}
	return members
}

// logLines records a member's debug lines so a test can tell whether it
// campaigned.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logLines) count(substr string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			n++
		}
	}
	return n
}

// waitFor polls cond until it holds or patience runs out.
func waitFor(t *testing.T, patience time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(patience)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", patience, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitFollowed waits until every member names lead as its leader.
func waitFollowed(t *testing.T, members []*member, lead *member) {
	t.Helper()
	waitFor(t, time.Second, "every member to follow "+lead.id, func() bool {
		for _, m := range members {
			if _, _, l := m.rep.Status(); l != lead.id {
				return false
			}
		}
		return true
	})
}

// requireTerm fails unless every member is at term want.
func requireTerm(t *testing.T, members []*member, want uint64) {
	t.Helper()
	for _, m := range members {
		if role, term, lead := m.rep.Status(); term != want {
			t.Errorf("%s: %v at t%d (leader %q), want t%d", m.id, role, term, lead, want)
		}
	}
}

// TestBootDesigneeElectsFirstLeader: a fresh durable three-member group
// elects its lowest-ID member at term 1 about one heartbeat after boot,
// not one election timeout. Members start in an order where the designee
// is last, so the choice comes from the sorted member set, not from start
// order.
func TestBootDesigneeElectsFirstLeader(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 41})
	members := startDurableGroup(t, nw, []string{"n2", "n3", "n1"}, 43, bootOpts())
	lead := waitLeader(t, members, time.Second)
	if lead.id != "n1" {
		t.Fatalf("first leader is %s, want the lowest ID n1", lead.id)
	}
	waitFollowed(t, members, lead)
	requireTerm(t, members, 1)
}

// TestBootDesigneeRetriesVotesUntilPeersListen: the designee boots alone,
// campaigns at term 1 with nobody listening, and keeps re-sending its vote
// requests every heartbeat. When its peers start several heartbeats later
// it wins that same term — a transport error is not a lost vote, so the
// campaign neither gives up nor churns the term.
func TestBootDesigneeRetriesVotesUntilPeersListen(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 53})
	peers := map[string]string{"A": "A", "B": "B", "C": "C"}
	var failed atomic.Int64
	o := bootOpts()
	o.dial = func(from, addr string) (net.Conn, error) {
		conn, err := nw.DialFrom(from, addr)
		if err != nil && from == "A" {
			failed.Add(1)
		}
		return conn, err
	}
	a := startMember(t, nw, "A", peers, 59, durable(t, o))
	waitFor(t, time.Second, "A to campaign", func() bool {
		role, _, _ := a.rep.Status()
		return role == Candidate
	})
	// Two peers, several heartbeats: the retries show up as failed dials.
	waitFor(t, time.Second, "A to retry its vote requests", func() bool { return failed.Load() >= 6 })

	members := []*member{a, startMember(t, nw, "B", peers, 59, durable(t, o)), startMember(t, nw, "C", peers, 59, durable(t, o))}
	lead := waitLeader(t, members, time.Second)
	if lead != a {
		t.Fatalf("leader is %s, want the designee A", lead.id)
	}
	waitFollowed(t, members, lead)
	requireTerm(t, members, 1)
}

// TestDurableRestartDoesNotCampaignEarly: a durable group that elected and
// committed is crashed and restarted over its stores. Every member
// recovers a persisted term, so none of them — the lowest ID included —
// is a boot designee: for many heartbeats nobody campaigns.
func TestDurableRestartDoesNotCampaignEarly(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 61})
	ids := []string{"A", "B", "C"}
	peers := map[string]string{"A": "A", "B": "B", "C": "C"}
	dirs := make([]string, len(ids))
	open := func(i int) *wal.Store {
		store, err := wal.OpenStore(dirs[i], wal.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}

	var members []*member
	var stores []*wal.Store
	for i, id := range ids {
		dirs[i] = t.TempDir()
		o := bootOpts()
		o.store = open(i)
		stores = append(stores, o.store)
		members = append(members, startMember(t, nw, id, peers, 67, o))
	}
	lead := waitLeader(t, members, time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := lead.rep.CallSession(ctx, "cli", 1, "Inc", []any{"k"}); err != nil {
		t.Fatal(err)
	}
	waitValue(t, members, "k", 1, time.Second)
	for i, m := range members {
		m.crash(nw)
		if err := stores[i].Close(); err != nil {
			t.Fatal(err)
		}
	}

	logs := make([]*logLines, len(ids))
	members = members[:0]
	for i, id := range ids {
		logs[i] = &logLines{}
		o := bootOpts()
		o.store = open(i)
		o.logf = logs[i].logf
		t.Cleanup(func() { _ = o.store.Close() })
		members = append(members, startMember(t, nw, id, peers, 67, o))
	}
	requireTerm(t, members, 1)
	time.Sleep(50 * bootBeat)
	for i, m := range members {
		if role, term, _ := m.rep.Status(); role != Follower || term != 1 {
			t.Errorf("%s: %v at t%d after restart, want a follower at t1", m.id, role, term)
		}
		if n := logs[i].count("election t"); n != 0 {
			t.Errorf("%s campaigned %d times within %v of a restart, want none before T=%v", m.id, n, 50*bootBeat, bootElection)
		}
	}
}

// TestFreshDesigneeJoiningLiveGroupDefers: the lowest-ID member comes back
// with an empty store (a replaced disk) into a group whose leader was
// elected at term 2 or later. It is a boot designee, so it campaigns — at
// term 1, which the live members refuse with their newer term. The member
// follows, and the group's leader and term stay in place.
func TestFreshDesigneeJoiningLiveGroupDefers(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 71})
	ids := []string{"A", "B", "C"}
	peers := map[string]string{"A": "A", "B": "B", "C": "C"}
	members := startDurableGroup(t, nw, ids, 73, groupOpts{})
	if first := waitLeader(t, members, 2*time.Second); first.id != "A" {
		t.Fatalf("first leader is %s, want the designee A", first.id)
	}
	members[0].crash(nw)
	live := members[1:]
	lead := waitLeader(t, live, 2*time.Second)
	_, term, _ := lead.rep.Status()
	if term < 2 {
		t.Fatalf("leader %s at t%d after the failover, want t2 or later", lead.id, term)
	}

	// Start the fresh A unreachable, so its boot campaign fires before any
	// heartbeat from the live leader can reach it.
	var log logLines
	o := bootOpts()
	o.logf = log.logf
	a := newMember(t, nw, "A", peers, 73, durable(t, o))
	waitFor(t, time.Second, "the fresh A to campaign at t1", func() bool { return log.count("election t1:") > 0 })
	waitFor(t, time.Second, "the fresh A to adopt the live term", func() bool {
		role, tm, _ := a.rep.Status()
		return role == Follower && tm == term
	})
	a.serve(t, nw)
	waitFollowed(t, []*member{a}, lead)
	time.Sleep(20 * bootBeat)
	for _, m := range live {
		role, tm, l := m.rep.Status()
		if tm != term || l != lead.id || (m == lead) != (role == Leader) {
			t.Errorf("%s: %v at t%d (leader %q), want leader %s at t%d undisturbed", m.id, role, tm, l, lead.id, term)
		}
	}
	if n := log.count("election t"); n != 1 {
		t.Errorf("the fresh A campaigned %d times, want exactly its one boot campaign", n)
	}
}

// TestMemoryOnlyMemberNeverCampaignsEarly: without a store a member cannot
// tell its first boot from a restart that forgot its votes and log, so a
// memory-only group keeps the normal [T, 2T) timeout on every member, the
// lowest ID included.
func TestMemoryOnlyMemberNeverCampaignsEarly(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 89})
	members := startGroup(t, nw, []string{"A", "B", "C"}, 97, bootOpts())
	time.Sleep(30 * bootBeat)
	for _, m := range members {
		if role, term, _ := m.rep.Status(); role != Follower || term != 0 {
			t.Errorf("%s: %v at t%d within %v of boot, want a follower at t0", m.id, role, term, 30*bootBeat)
		}
	}
}

// TestBlockedPeerDialDoesNotStallCommits: one member's host drops SYNs, so
// every dial to it blocks. The other two must still elect and commit:
// peer dials run outside the peer lock the leader takes (under r.mu) to
// become leader and to count commits.
func TestBlockedPeerDialDoesNotStallCommits(t *testing.T) {
	nw := simnet.New(simnet.Config{Seed: 79})
	peers := map[string]string{"A": "A", "B": "B", "C": "C"}
	release := make(chan struct{})
	o := groupOpts{election: 100 * time.Millisecond, beat: bootBeat}
	o.dial = func(from, addr string) (net.Conn, error) {
		if addr == "C" {
			<-release
			return nil, errors.New("test: dial to C released")
		}
		return nw.DialFrom(from, addr)
	}
	members := []*member{startMember(t, nw, "A", peers, 83, o), startMember(t, nw, "B", peers, 83, o)}
	// Registered after the members, so it runs before they close: no
	// goroutine outlives the test stuck in a dial.
	t.Cleanup(func() { close(release) })

	// Elect and commit on a goroutine: a stalled leader blocks Status
	// itself, and the test must fail rather than hang.
	const commitBudget = 10 * bootBeat
	type outcome struct {
		lead string
		took time.Duration
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			for _, m := range members {
				if role, _, _ := m.rep.Status(); role != Leader {
					continue
				}
				ctx, cancel := context.WithTimeout(context.Background(), commitBudget)
				start := time.Now()
				_, err := m.rep.CallSession(ctx, "cli", 1, "Inc", []any{"k"})
				cancel()
				done <- outcome{lead: m.id, took: time.Since(start), err: err}
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		done <- outcome{err: errors.New("no leader elected")}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("leader %q: commit with C unreachable: %v", out.lead, out.err)
		}
		t.Logf("leader %s committed in %v with every dial to C blocked", out.lead, out.took)
	case <-time.After(3 * time.Second):
		t.Fatal("group stalled: a blocked dial to C holds a lock the election or commit path needs")
	}
}
