package e2e

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/fabric"
	"repro/internal/testutil"
)

// ledgerFile mirrors the JSON alpsclient fabric-load writes.
type ledgerFile struct {
	Client     string            `json:"client"`
	Execs      []fabric.Exec     `json:"execs"`
	Incomplete map[string]uint64 `json:"incomplete"`
}

func readLedger(t *testing.T, path string) ledgerFile {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ledger %s: %v", path, err)
	}
	var lf ledgerFile
	if err := json.Unmarshal(b, &lf); err != nil {
		t.Fatalf("ledger %s: %v", path, err)
	}
	return lf
}

// serverOrder reconstructs each key's server-side execution order from
// the merged client ledgers: Count is assigned under the owning shard
// manager's serialization, so sorting one key's acknowledged execs by
// Count yields the order the fabric actually ran them in — valid input
// for conformance.CheckKeyOrder even though it was observed client-side.
func serverOrder(execs []fabric.Exec) []conformance.KeyedExec {
	byKey := make(map[string][]fabric.Exec)
	for _, e := range execs {
		byKey[e.Key] = append(byKey[e.Key], e)
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []conformance.KeyedExec
	for _, k := range keys {
		es := byKey[k]
		sort.Slice(es, func(i, j int) bool { return es[i].Count < es[j].Count })
		for _, e := range es {
			out = append(out, conformance.KeyedExec{
				Key: e.Key, Client: e.Client, Seq: int(e.Seq), Shard: e.Node, Epoch: e.Epoch,
			})
		}
	}
	return out
}

// checkCounts verifies that each key's acknowledged counts are exactly
// 1..N: a repeated count is a duplicated execution (lost update), a hole
// is an execution acknowledged to no one — both oracle-grade failures.
func checkCounts(execs []fabric.Exec) []string {
	byKey := make(map[string][]uint64)
	for _, e := range execs {
		byKey[e.Key] = append(byKey[e.Key], e.Count)
	}
	var problems []string
	for key, counts := range byKey {
		sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
		for i, c := range counts {
			if c != uint64(i+1) {
				problems = append(problems, fmt.Sprintf(
					"key %q: acknowledged counts not contiguous at position %d (got %d, want %d; %d acks total)",
					key, i, c, i+1, len(counts)))
				break
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// auditOracle cross-checks every key's server-side ledger against the
// merged client view: the owner's count must equal the number of
// acknowledged execs, and its per-client high-water seq must match what
// each client believes it pushed. Retries until the budget expires so a
// still-settling handoff isn't misread as divergence.
func auditOracle(t *testing.T, c *cluster, execs []fabric.Exec) {
	t.Helper()
	type expect struct {
		count   uint64
		clients map[string]uint64
	}
	want := make(map[string]*expect)
	for _, e := range execs {
		w := want[e.Key]
		if w == nil {
			w = &expect{clients: make(map[string]uint64)}
			want[e.Key] = w
		}
		w.count++
		if e.Seq >= w.clients[e.Client] {
			w.clients[e.Client] = e.Seq
		}
	}
	ring, err := fabric.NewRing(c.epoch, c.ringSeed, 0, c.members)
	if err != nil {
		t.Fatal(err)
	}
	router, err := fabric.NewRouter(ring.Spec(), fabric.RouterOptions{ClientID: "oracle", DialTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lastMismatch string
	ok := func() bool {
		for _, key := range keys {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			a, err := router.Audit(ctx, key)
			cancel()
			if err != nil {
				lastMismatch = fmt.Sprintf("audit %q: %v", key, err)
				return false
			}
			w := want[key]
			if !a.Found || a.Count != w.count {
				lastMismatch = fmt.Sprintf("key %q: owner %s has count %d (found=%v), clients acknowledged %d",
					key, a.Node, a.Count, a.Found, w.count)
				return false
			}
			for client, seq := range w.clients {
				if got, okc := a.Clients[client]; !okc || got != seq {
					lastMismatch = fmt.Sprintf("key %q: owner %s records client %q at seq %d (present=%v), client acknowledged through %d",
						key, a.Node, client, got, okc, seq)
					return false
				}
			}
		}
		return true
	}
	deadline := testutil.WaitBudget(t)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("audit convergence failed: %s", lastMismatch)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// migrationProof asserts the corpus actually exercised a live handoff:
// at least one key must have executions at two different placement
// epochs on two different nodes.
func migrationProof(execs []fabric.Exec) (string, bool) {
	type firstSeen struct {
		node  string
		epoch uint64
	}
	seen := make(map[string]firstSeen)
	for _, e := range execs {
		f, ok := seen[e.Key]
		if !ok {
			seen[e.Key] = firstSeen{node: e.Node, epoch: e.Epoch}
			continue
		}
		if e.Node != f.node && e.Epoch != f.epoch {
			return e.Key, true
		}
	}
	return "", false
}

func formatDivergences(divs []conformance.Divergence) string {
	var b strings.Builder
	for i, d := range divs {
		if i >= 10 {
			fmt.Fprintf(&b, "... and %d more\n", len(divs)-i)
			break
		}
		fmt.Fprintf(&b, "%+v\n", d)
	}
	return b.String()
}
