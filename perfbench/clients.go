package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/conformance"
	"repro/internal/fabric"
	"repro/internal/rpc"
	"repro/internal/workload"
)

// conns is how many connections the generator opens to each target.
const conns = 2

// client drives one workload's calls against a running deployment and
// checks what comes back.
type client interface {
	// warm makes one successful call on every connection.
	warm(ctx context.Context) error
	send(ctx context.Context, id int, o op) (err, check error)
	// audit checks the deployment's final state against every call made.
	audit(ctx context.Context, l *ledger) error
	close()
}

// ledger keeps every phase run against one deployment, so a value read
// back can be traced to the call that wrote it.
type ledger struct {
	phases []*phase
	next   int
}

func (l *ledger) add(ops []op, timeout time.Duration) *phase {
	p := &phase{ops: ops, base: l.next, timeout: timeout}
	l.next += len(ops)
	l.phases = append(l.phases, p)
	return p
}

// op returns the call with run-wide number id. Ops never change once a
// phase exists, so this is safe while the phase runs.
func (l *ledger) op(id int) (op, bool) {
	for _, p := range l.phases {
		if id >= p.base && id < p.base+len(p.ops) {
			return p.ops[id-p.base], true
		}
	}
	return op{}, false
}

// keyBits is how many low bits of a written value carry its key; the
// rest is the number of the call that wrote it.
const keyBits = 11

func writeValue(id int, key int32) int { return id<<keyBits | int(key) }

// checkWritten reports whether v was written to key by some call of the
// ledger.
func checkWritten(l *ledger, key int32, v int) error {
	id, k := v>>keyBits, int32(v&(1<<keyBits-1))
	o, ok := l.op(id)
	if k != key || !ok || o.class != classWrite || o.key != key {
		return fmt.Errorf("key %d returned value %d, which no write of that key produced", key, v)
	}
	return nil
}

// auditFinal checks the value a key holds after every call has ended:
// it must come from a write of that key that was acknowledged or whose
// outcome is unknown, and not from one that finished before another
// acknowledged write of the key began. v < 0 means the key reads as
// never written.
func auditFinal(l *ledger, key int32, v int) error {
	var newestStart time.Time
	acked := 0
	type span struct{ start, end time.Time }
	var got *span
	gotOK := false
	for _, p := range l.phases {
		for i, o := range p.ops {
			if o.class != classWrite || o.key != key {
				continue
			}
			r := p.recs[i]
			if !r.sent {
				continue
			}
			if r.ok {
				acked++
			}
			due := p.start.Add(o.due)
			s := span{due.Add(r.lag), due.Add(r.lat)}
			if r.ok && s.start.After(newestStart) {
				newestStart = s.start
			}
			if writeValue(p.base+i, key) == v {
				got, gotOK = &s, r.ok
			}
		}
	}
	switch {
	case v < 0 && acked == 0:
		return nil // no write of the key is known to have happened
	case v < 0:
		return fmt.Errorf("audit: key %d reads as never written after %d acknowledged writes", key, acked)
	case got == nil:
		return fmt.Errorf("audit: key %d holds %d, which no write of that key produced", key, v)
	case gotOK && got.end.Before(newestStart):
		return fmt.Errorf("audit: key %d holds %d, overwritten by a later acknowledged write", key, v)
	}
	return nil
}

// retryUntil calls f until it succeeds or ctx ends.
func retryUntil(ctx context.Context, f func() error) error {
	for {
		err := f()
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%w (last error: %v)", ctx.Err(), err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func dialAll(ctx context.Context, dial func() (*rpc.Remote, error)) ([]*rpc.Remote, error) {
	rems := make([]*rpc.Remote, conns)
	for i := range rems {
		err := retryUntil(ctx, func() error {
			r, err := dial()
			rems[i] = r
			return err
		})
		if err != nil {
			for _, r := range rems[:i] {
				r.Close()
			}
			return nil, err
		}
	}
	return rems, nil
}

// managed drives the Database and Dictionary of one node.
type managed struct {
	rems []*rpc.Remote
	l    *ledger
	keys int
}

func dialManaged(ctx context.Context, addr string, l *ledger, w spec) (*managed, error) {
	rems, err := dialAll(ctx, func() (*rpc.Remote, error) {
		return rpc.DialWith(addr, rpc.DialOptions{Timeout: time.Second})
	})
	if err != nil {
		return nil, err
	}
	return &managed{rems: rems, l: l, keys: w.keys}, nil
}

func (m *managed) warm(ctx context.Context) error {
	for _, r := range m.rems {
		if err := retryUntil(ctx, func() error {
			_, err := r.CallCtx(ctx, "Database", "Read", 0)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

var words = workload.Words(4096)

func (m *managed) send(ctx context.Context, id int, o op) (error, error) {
	r := m.rems[id%conns]
	switch o.class {
	case classRead:
		res, err := r.CallCtx(ctx, "Database", "Read", int(o.key))
		if err != nil {
			return err, nil
		}
		if len(res) != 2 {
			return nil, fmt.Errorf("Database.Read returned %d values", len(res))
		}
		if found, _ := res[1].(bool); !found {
			return nil, nil
		}
		v, _ := res[0].(int)
		return nil, checkWritten(m.l, o.key, v)
	case classWrite:
		_, err := r.CallCtx(ctx, "Database", "Write", int(o.key), writeValue(id, o.key))
		return err, nil
	default:
		w := words[o.key]
		res, err := r.CallCtx(ctx, "Dictionary", "Search", w)
		if err != nil {
			return err, nil
		}
		if len(res) != 1 || res[0] != "meaning of "+w {
			return nil, fmt.Errorf("Dictionary.Search(%q) = %v", w, res)
		}
		return nil, nil
	}
}

func (m *managed) audit(ctx context.Context, l *ledger) error {
	for k := 0; k < m.keys; k++ {
		res, err := m.rems[k%conns].CallCtx(ctx, "Database", "Read", k)
		if err != nil {
			return fmt.Errorf("audit read %d: %w", k, err)
		}
		v := -1
		if found, _ := res[1].(bool); found {
			v, _ = res[0].(int)
		}
		if err := auditFinal(l, int32(k), v); err != nil {
			return err
		}
	}
	return nil
}

func (m *managed) close() {
	for _, r := range m.rems {
		r.Close()
	}
}

// registry drives the replicated Registry through rpc.DialMulti, which
// follows the leader.
type registry struct {
	rems []*rpc.Remote
	l    *ledger
	keys int
}

var regKeys = func() []string {
	out := make([]string, 1<<keyBits)
	for i := range out {
		out[i] = fmt.Sprintf("k%04d", i)
	}
	return out
}()

func dialRegistry(ctx context.Context, addrs []string, l *ledger, w spec) (*registry, error) {
	rems, err := dialAll(ctx, func() (*rpc.Remote, error) {
		return rpc.DialMulti(addrs, rpc.DialOptions{
			Timeout: time.Second,
			Retry:   rpc.RetryPolicy{Max: 8, Backoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond},
		})
	})
	if err != nil {
		return nil, err
	}
	return &registry{rems: rems, l: l, keys: w.keys}, nil
}

func (g *registry) warm(ctx context.Context) error {
	for _, r := range g.rems {
		if err := retryUntil(ctx, func() error {
			_, err := r.CallCtx(ctx, "Registry", "Get", "warm")
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

func (g *registry) send(ctx context.Context, id int, o op) (error, error) {
	r := g.rems[id%conns]
	if o.class == classWrite {
		res, err := r.CallCtx(ctx, "Registry", "Put", regKeys[o.key], strconv.Itoa(writeValue(id, o.key)))
		if err != nil {
			return err, nil
		}
		if n, _ := res[0].(int); len(res) != 1 || n < 1 {
			return nil, fmt.Errorf("Registry.Put returned %v", res)
		}
		return nil, nil
	}
	res, err := r.CallCtx(ctx, "Registry", "Get", regKeys[o.key])
	if err != nil {
		return err, nil
	}
	s, _ := res[0].(string)
	if len(res) != 1 || s == "" {
		return nil, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return nil, fmt.Errorf("Registry.Get(%s) = %q", regKeys[o.key], s)
	}
	return nil, checkWritten(g.l, o.key, v)
}

func (g *registry) audit(ctx context.Context, l *ledger) error {
	for k := 0; k < g.keys; k++ {
		res, err := g.rems[k%conns].CallCtx(ctx, "Registry", "Get", regKeys[k])
		if err != nil {
			return fmt.Errorf("audit get %s: %w", regKeys[k], err)
		}
		v := -1
		if s, _ := res[0].(string); s != "" {
			if v, err = strconv.Atoi(s); err != nil {
				return fmt.Errorf("audit get %s = %q", regKeys[k], s)
			}
		}
		if err := auditFinal(l, int32(k), v); err != nil {
			return err
		}
	}
	return nil
}

func (g *registry) close() {
	for _, r := range g.rems {
		r.Close()
	}
}

// appender drives fabric appends through two Routers (one connection to
// each member apiece). A key always goes through the same Router, whose
// client identity owns the key's sequence.
type appender struct {
	routers []*fabric.Router
	spec    string
	payload int
	body    []byte
	// Per key, touched only by the key's current call (drive chains a
	// key's calls): the next sequence number and the acknowledged execs.
	nextSeq []uint64
	execs   [][]fabric.Exec
}

var fabKeys = func() []string {
	out := make([]string, 4096)
	for i := range out {
		out[i] = fmt.Sprintf("key-%04d", i)
	}
	return out
}()

func newAppender(spec string, w spec, seed uint64) (*appender, error) {
	a := &appender{spec: spec, payload: w.payload, nextSeq: make([]uint64, w.keys), execs: make([][]fabric.Exec, w.keys)}
	for i := 0; i < conns; i++ {
		r, err := fabric.NewRouter(spec, fabric.RouterOptions{ClientID: fmt.Sprintf("perfbench-%d", i)})
		if err != nil {
			a.close()
			return nil, err
		}
		a.routers = append(a.routers, r)
	}
	rng := workload.NewRNG(seed)
	a.body = make([]byte, w.payload*3)
	for i := range a.body {
		a.body[i] = byte(rng.Uint64())
	}
	return a, nil
}

// warm appends once to a key of every member through every Router, which
// opens each Router's connection to each member.
func (a *appender) warm(ctx context.Context) error {
	ring, err := fabric.ParseSpec(a.spec)
	if err != nil {
		return err
	}
	for ri, r := range a.routers {
		for _, m := range ring.Members() {
			key := ""
			for j := 0; ; j++ {
				if k := fmt.Sprintf("warm-%d-%s-%d", ri, m, j); ring.Owner(k) == m {
					key = k
					break
				}
			}
			if err := retryUntil(ctx, func() error {
				_, err := r.Append(ctx, key, 0, []byte("warm"))
				return err
			}); err != nil {
				return fmt.Errorf("warm %s via router %d: %w", m, ri, err)
			}
		}
	}
	return nil
}

// payloadFor builds id's payload: the call number in the first 8 bytes
// (the traced run links spans by it), then seeded bytes, 7/8 to 9/8 of
// the nominal size.
func (a *appender) payloadFor(id int) []byte {
	n := a.payload*7/8 + id*2654435761%(a.payload/4+1)
	p := make([]byte, n)
	off := id * 40503 % a.payload
	copy(p, a.body[off:off+n])
	binary.LittleEndian.PutUint64(p, uint64(id))
	return p
}

func (a *appender) send(ctx context.Context, id int, o op) (error, error) {
	k := o.key
	seq := a.nextSeq[k]
	e, err := a.routers[int(k)%conns].Append(ctx, fabKeys[k], seq, a.payloadFor(id))
	if err != nil {
		var gap *fabric.GapError
		if errors.As(err, &gap) {
			return err, fmt.Errorf("fabric sequence gap: %v", err)
		}
		// The append may or may not have executed; the key's next call
		// reuses seq, which the ledger answers as a duplicate if it did.
		return err, nil
	}
	a.nextSeq[k]++
	a.execs[k] = append(a.execs[k], e)
	return nil, nil
}

// audit checks the acknowledged appends: per key, counts run 1..N with
// no hole or repeat, and the execs in count order satisfy
// conformance.CheckKeyOrder (affinity, per-key FIFO, at-most-once).
func (a *appender) audit(context.Context, *ledger) error {
	var ke []conformance.KeyedExec
	for k, es := range a.execs {
		for i, e := range es {
			if e.Count != uint64(i+1) {
				return fmt.Errorf("key %s: acknowledged count %d at position %d, want %d", fabKeys[k], e.Count, i, i+1)
			}
			ke = append(ke, conformance.KeyedExec{Key: e.Key, Client: e.Client, Seq: int(e.Seq), Shard: e.Node, Epoch: e.Epoch})
		}
	}
	if divs := conformance.CheckKeyOrder(ke); len(divs) > 0 {
		return fmt.Errorf("fabric key order: %d divergences, first: %s: %s", len(divs), divs[0].Rule, divs[0].Detail)
	}
	return nil
}

func (a *appender) close() {
	for _, r := range a.routers {
		r.Close()
	}
}
