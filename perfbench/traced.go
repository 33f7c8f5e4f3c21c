package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	alps "repro"
	"repro/internal/fabric"
	"repro/internal/objects/dict"
	"repro/internal/objects/rwdb"
	"repro/internal/replica"
	"repro/internal/rpc"
	"repro/internal/wal"
)

// Span kinds, one per layer boundary the traced run times.
const (
	spanCall  uint8 = iota // rpc.Remote.CallCtx / fabric.Router.Append, in the generator
	spanServe              // the Callable a node publishes (object, Replica or fabric Host)
	spanApply              // the object a Replica applies committed calls to
	spanFsync              // wal File.Sync under a replica's store
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"call", "serve", "apply", "fsync"}

// span is one timed call across one boundary. Spans of one request share
// req (the generator's call number) where the boundary can see it: in a
// written value or an append payload. Reads carry req -1.
type span struct {
	kind   uint8
	member uint8 // node index in the deployment
	entry  string
	req    int64
	start  int64 // ns since the recorder's epoch
	end    int64
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span

	peerWrites, peerBytes atomic.Uint64 // on connections replicas dial
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(kind, member uint8, entry string, req int64, start time.Time) {
	s := span{kind: kind, member: member, entry: entry, req: req,
		start: int64(start.Sub(r.epoch)), end: int64(time.Since(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// reset drops everything recorded so far (warm-up traffic).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
	r.peerWrites.Store(0)
	r.peerBytes.Store(0)
}

// snapshot copies the spans recorded so far; background traffic between
// nodes may still be adding spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// mean returns the mean duration and count of the spans matching keep.
func mean(spans []span, keep func(*span) bool) (time.Duration, int) {
	var sum int64
	n := 0
	for i := range spans {
		if s := &spans[i]; keep(s) {
			sum += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return time.Duration(sum / int64(n)), n
}

// writeSpans saves spans as CSV: kind,member,entry,req,start_ns,end_ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "kind,member,entry,req,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s,%d,%s,%d,%d,%d\n", spanNames[s.kind], s.member, s.entry, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// reqOf recovers the generator's call number from a call's parameters
// where one travels with it.
func reqOf(entry string, params []any) int64 {
	switch entry {
	case "Write": // Database.Write(key, value)
		if len(params) == 2 {
			if v, ok := params[1].(int); ok {
				return int64(v >> keyBits)
			}
		}
	case "Put": // Registry.Put(key, value)
		if len(params) == 2 {
			if s, ok := params[1].(string); ok {
				if v, err := strconv.Atoi(s); err == nil {
					return int64(v >> keyBits)
				}
			}
		}
	case "Append": // fabric Append(key, client, seq, payload, ...)
		if len(params) >= 4 {
			if b, ok := params[3].([]byte); ok && len(b) >= 8 {
				return int64(binary.LittleEndian.Uint64(b))
			}
		}
	}
	return -1
}

// timed wraps a Callable, recording one span of kind per call.
type timed struct {
	inner  rpc.Callable
	rec    *recorder
	kind   uint8
	member uint8
}

func (t *timed) CallCtx(ctx context.Context, entry string, params ...any) ([]any, error) {
	start := time.Now()
	res, err := t.inner.CallCtx(ctx, entry, params...)
	t.rec.add(t.kind, t.member, entry, reqOf(entry, params), start)
	return res, err
}

// timedReplica is timed for a Replica: the node hands session-aware
// objects the caller's (client, seq) through CallSession, and the
// wrapper must keep that path.
type timedReplica struct {
	timed
	rep *replica.Replica
}

func (t *timedReplica) CallSession(ctx context.Context, client string, seq uint64, entry string, params []any) ([]any, error) {
	start := time.Now()
	res, err := t.rep.CallSession(ctx, client, seq, entry, params)
	t.rec.add(t.kind, t.member, entry, reqOf(entry, params), start)
	return res, err
}

// countConn counts the writes on a connection a replica dialed.
type countConn struct {
	net.Conn
	rec *recorder
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.rec.peerWrites.Add(1)
	c.rec.peerBytes.Add(uint64(n))
	return n, err
}

// timedFS times File.Sync on the files a wal store opens.
type timedFS struct {
	wal.FS
	rec    *recorder
	member uint8
}

func (f timedFS) Create(name string) (wal.File, error) {
	fl, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{fl, f}, nil
}

func (f timedFS) Append(name string) (wal.File, error) {
	fl, err := f.FS.Append(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{fl, f}, nil
}

type timedFile struct {
	wal.File
	fs timedFS
}

func (t *timedFile) Sync() error {
	start := time.Now()
	err := t.File.Sync()
	t.fs.rec.add(spanFsync, t.fs.member, "", -1, start)
	return err
}

// inproc is one workload's deployment hosted in the benchmark's own
// process, built from the same constructors alpsd uses.
type inproc struct {
	rec    *recorder
	lis    []net.Listener
	addrs  []string // what clients dial
	spec   string   // fabric ring spec
	nodes  []*rpc.Node
	reps   []*replica.Replica
	stores []*wal.Store
	walM   []*wal.Metrics
	closer []func()
}

func (d *inproc) listeners(n int) ([]net.Listener, []string, error) {
	lis := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range lis {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lis[:i] {
				_ = l.Close()
			}
			return nil, nil, err
		}
		lis[i], addrs[i] = l, l.Addr().String()
	}
	d.lis = append(d.lis, lis...)
	return lis, addrs, nil
}

func (d *inproc) serve(n *rpc.Node, l net.Listener) {
	d.nodes = append(d.nodes, n)
	go func() { _ = n.Serve(l) }()
}

// hostInproc builds w's deployment in-process with every boundary timed.
func hostInproc(w spec, dir string) (*inproc, error) {
	d := &inproc{rec: newRecorder()}
	var err error
	switch w.name {
	case "managed-rw":
		err = d.hostManaged()
	case "replicated-registry":
		err = d.hostRegistry(dir)
	case "fabric-append":
		err = d.hostFabric(dir)
	default:
		err = fmt.Errorf("no in-process deployment for %s", w.name)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// hostManaged mirrors alpsd -search-cost 0: a combining Dictionary and a
// readers-writers Database on one node.
func (d *inproc) hostManaged() error {
	dc, err := dict.New(dict.Options{SearchMax: 32, Combine: true})
	if err != nil {
		return err
	}
	d.closer = append(d.closer, func() { _ = dc.Close() })
	db, err := rwdb.New(rwdb.Config{ReadMax: 8})
	if err != nil {
		return err
	}
	d.closer = append(d.closer, func() { _ = db.Close() })
	lis, addrs, err := d.listeners(1)
	if err != nil {
		return err
	}
	n := rpc.NewNodeWith("n0", rpc.NodeOptions{Metrics: &rpc.Metrics{}})
	for name, obj := range map[string]*alps.Object{"Dictionary": dc.Object(), "Database": db.Object()} {
		if err := n.PublishCallable(name, &timed{inner: obj, rec: d.rec, kind: spanServe}); err != nil {
			return err
		}
	}
	d.serve(n, lis[0])
	d.addrs = addrs
	return nil
}

// hostRegistry mirrors alpsd -replica-id -peers -data-dir: three durable
// Registry members. Each member's consensus endpoint and its client
// surface sit on two nodes of the member (the Replica publishes its own
// endpoint; the timed wrapper must take the Registry name), so clients
// dial one set of addresses and peers another.
func (d *inproc) hostRegistry(dir string) error {
	const n = 3
	peerLis, peerAddrs, err := d.listeners(n)
	if err != nil {
		return err
	}
	cliLis, cliAddrs, err := d.listeners(n)
	if err != nil {
		return err
	}
	peers := make(map[string]string, n)
	for i := range peerAddrs {
		peers[fmt.Sprintf("n%d", i)] = peerAddrs[i]
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		m := &wal.Metrics{}
		st, err := wal.OpenStore(filepath.Join(dir, id), wal.StoreOptions{
			FS: timedFS{FS: wal.OSFS{}, rec: d.rec, member: uint8(i)}, SnapshotEvery: 4096, Metrics: m,
		})
		if err != nil {
			return err
		}
		d.stores, d.walM = append(d.stores, st), append(d.walM, m)
		reg, snap, restore, err := newRegistry()
		if err != nil {
			return err
		}
		d.closer = append(d.closer, func() { _ = reg.Close() })
		nm := &rpc.Metrics{}
		pn := rpc.NewNodeWith(id, rpc.NodeOptions{Metrics: nm, Durable: st})
		cn := rpc.NewNodeWith(id+"-client", rpc.NodeOptions{Metrics: nm, Durable: st})
		rec := d.rec
		rep, err := replica.New(replica.Config{
			ID: id, Group: "Registry", Peers: peers, Store: st,
			ElectionTimeout: 150 * time.Millisecond,
			Dial: func(addr string) (net.Conn, error) {
				c, err := net.DialTimeout("tcp", addr, 2*time.Second)
				if err != nil {
					return nil, err
				}
				return &countConn{Conn: c, rec: rec}, nil
			},
			Snapshot: snap, Restore: restore,
			ReadOnly: func(entry string) bool { return entry == "Get" },
			Metrics:  nm,
		}, &timed{inner: reg, rec: rec, kind: spanApply, member: uint8(i)})
		if err != nil {
			return err
		}
		d.reps = append(d.reps, rep)
		if err := rep.Publish(pn); err != nil {
			return err
		}
		if err := cn.PublishCallable("Registry", &timedReplica{
			timed: timed{inner: rep, rec: rec, kind: spanServe, member: uint8(i)}, rep: rep,
		}); err != nil {
			return err
		}
		d.serve(pn, peerLis[i])
		d.serve(cn, cliLis[i])
	}
	d.addrs = cliAddrs
	return nil
}

// newRegistry builds the object alpsd replicates: a flat string map with
// non-blocking Put and Get, plus its snapshot/restore pair.
func newRegistry() (*alps.Object, func() ([]byte, error), func([]byte) error, error) {
	var mu sync.Mutex
	data := make(map[string]string)
	obj, err := alps.New("Registry",
		alps.WithEntry(alps.EntrySpec{Name: "Put", Params: 2, Results: 1, Body: func(inv *alps.Invocation) error {
			k, _ := inv.Param(0).(string)
			v, _ := inv.Param(1).(string)
			mu.Lock()
			data[k] = v
			n := len(data)
			mu.Unlock()
			inv.Return(n)
			return nil
		}}),
		alps.WithEntry(alps.EntrySpec{Name: "Get", Params: 1, Results: 1, Body: func(inv *alps.Invocation) error {
			k, _ := inv.Param(0).(string)
			mu.Lock()
			v := data[k]
			mu.Unlock()
			inv.Return(v)
			return nil
		}}),
	)
	if err != nil {
		return nil, nil, nil, err
	}
	snapshot := func() ([]byte, error) {
		mu.Lock()
		defer mu.Unlock()
		var buf bytes.Buffer
		err := gob.NewEncoder(&buf).Encode(data)
		return buf.Bytes(), err
	}
	restore := func(b []byte) error {
		m := make(map[string]string)
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&m); err != nil {
			return err
		}
		mu.Lock()
		data = m
		mu.Unlock()
		return nil
	}
	return obj, snapshot, restore, nil
}

// hostFabric mirrors alpsd -fabric-id -fabric-members -data-dir: three
// journaled fabric hosts on one ring.
func (d *inproc) hostFabric(dir string) error {
	const n = 3
	lis, addrs, err := d.listeners(n)
	if err != nil {
		return err
	}
	members := make(map[string]string, n)
	for i := range addrs {
		members[fmt.Sprintf("n%d", i)] = addrs[i]
	}
	ring, err := fabric.NewRing(0, 1, 0, members)
	if err != nil {
		return err
	}
	d.spec = ring.Spec()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		h, err := fabric.NewHost(fabric.HostOptions{ID: id, Spec: d.spec, Shards: 4, Dir: filepath.Join(dir, id, "fabric")})
		if err != nil {
			return err
		}
		d.closer = append(d.closer, func() { _ = h.Close() })
		node := rpc.NewNodeWith(id, rpc.NodeOptions{Metrics: &rpc.Metrics{}})
		if err := node.PublishCallable("fabric", &timed{inner: h, rec: d.rec, kind: spanServe, member: uint8(i)}); err != nil {
			return err
		}
		d.serve(node, lis[i])
	}
	d.addrs = addrs
	return nil
}

// leader returns the index of the Registry leader, or -1.
func (d *inproc) leader() int {
	for i, r := range d.reps {
		if role, _, _ := r.Status(); role == replica.Leader {
			return i
		}
	}
	return -1
}

func (d *inproc) walTotals() (fsyncs, records uint64) {
	for _, m := range d.walM {
		fsyncs += m.Fsyncs.Value()
		records += m.Records.Value()
	}
	return fsyncs, records
}

// close tears the deployment down in alpsd's order: replicas, nodes,
// objects and hosts, then stores.
func (d *inproc) close() {
	for _, r := range d.reps {
		r.Close()
	}
	for _, n := range d.nodes {
		n.Close()
	}
	for _, l := range d.lis {
		_ = l.Close() // listeners of nodes that never started serving
	}
	for i := len(d.closer) - 1; i >= 0; i-- {
		d.closer[i]()
	}
	for _, s := range d.stores {
		_ = s.Close()
	}
}
