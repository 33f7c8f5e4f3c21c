package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"time"
)

// runTraced reports the per-layer metrics, in three equal parts. The
// nominal schedule runs untraced against one boot of the real daemons,
// measured from outside (/proc and the drain lines); a second boot takes
// the capacity probes; then the nominal schedule runs again against the
// same objects hosted in this process with a span around every layer
// boundary, and the two p50s are printed side by side.
func runTraced(c config, dir string, r *report) error {
	w := c.w
	third := time.Duration(c.seconds) * time.Second / 3
	nominal, err := schedule(w, c.seed, w.rate, third)
	if err != nil {
		return err
	}

	// Part 1: alpsd, untraced.
	cl, d, _, err := bootAndConnect(c, filepath.Join(dir, "alpsd"), &r.checks)
	if err != nil {
		return err
	}
	ps, err := nominalPass(w, cl, d, nominal)
	if err != nil {
		return err
	}
	s := summarize(windowLen, ps.p)

	// Part 2: capacity.
	rate, err := runCapacity(c, filepath.Join(dir, "capacity"), third/probes, &r.checks)
	if err != nil {
		return err
	}

	// Part 3: in-process, traced.
	ip, err := hostInproc(w, filepath.Join(dir, "inproc"))
	if err != nil {
		return err
	}
	defer ip.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d2, err := connect(ctx, w, ip.addrs, ip.spec, c.seed, &r.checks)
	if err != nil {
		return fmt.Errorf("connect in-process %s: %w", w.name, err)
	}
	defer d2.cl.close()
	ip.rec.reset()
	fs0, recs0 := ip.walTotals()
	rt0 := readRuntime()
	p2 := d2.run(nominal, nominalTimeout, traceCalls(ip.rec))
	rt1 := readRuntime()
	fs1, recs1 := ip.walTotals()
	spans := ip.rec.snapshot()
	peerW, peerB := ip.rec.peerWrites.Load(), ip.rec.peerBytes.Load()
	leader := ip.leader()
	d2.audit()
	s2 := summarize(windowLen, p2)
	spanFile := filepath.Join(c.workdir, fmt.Sprintf("spans-%s-%d.csv", w.name, c.seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return err
	}

	r.res.Attempted = s.attempted + s2.attempted
	r.res.Failed = s.failed + s2.failed
	fmt.Printf("untraced: %d calls, %d failed; traced: %d calls, %d failed; spans in %s\n",
		s.attempted, s.failed, s2.attempted, s2.failed, spanFile)
	if s.failed+s2.failed > 0 {
		fmt.Printf("failed calls:%s\n", failures(ps.p, p2))
	}

	// Untraced, from outside the daemons.
	ops := float64(s.attempted)
	var dcpu, busiest time.Duration
	var syscw, wbytes, ctxsw uint64
	for _, delta := range ps.deltas {
		dcpu += delta.cpu
		busiest = max(busiest, delta.cpu)
		syscw += delta.syscw
		wbytes += delta.writeBytes
		ctxsw += delta.ctxSw
	}
	// Drain totals cover each daemon's whole life: warm-up, the nominal
	// phase and the audit, so they are divided by every call it served.
	served := float64(ps.served)
	var t drain
	var batchW, windowW float64
	for _, x := range ps.drains {
		t.bytesOut += x.bytesOut
		t.bytesIn += x.bytesIn
		t.framesOut += x.framesOut
		t.flushes += x.flushes
		t.dedupReplays += x.dedupReplays
		t.proposals += x.proposals
		t.rounds += x.rounds
		t.reads += x.reads
		t.readRounds += x.readRounds
		t.retries += x.retries
		batchW += x.batchMean * float64(x.batchN)
		t.batchN += x.batchN
		windowW += x.windowMean * float64(x.windowN)
		t.windowN += x.windowN
	}
	r.set("p50_ms", ms(s.p50), "ms", fmt.Sprintf("n=%d of %d", s.n, s.attempted))
	r.set("write.p50_ms", ms(s.classP50[classWrite]), "ms", fmt.Sprintf("n=%d", s.classN[classWrite]))
	r.set("cpu_us_per_op", float64(dcpu.Microseconds())/float64(s.attempted-s.failed), "us", fmt.Sprintf("alpsd cpu %v", dcpu))
	r.set("p99_ms", ms(s.p99win), "ms", fmt.Sprintf("median of %d window p99s; pooled p99 %.3f ms, n=%d", s.windows, ms(s.p99), s.n))
	r.set("max_rate_ops_s", rate, "1/s", fmt.Sprintf("p99 under %v, %d probes of %v", w.limit, probes, third/probes))
	r.set("read.p50_ms", ms(s.readP50), "ms", fmt.Sprintf("n=%d", s.classN[classRead]+s.classN[classSearch]))
	r.set("node.steal_share", s.steal, "ratio", fmt.Sprintf("untraced pass; latencies use windows with steal at most %.3f", s.quietSteal))
	r.set("fail_ratio", float64(s.failed)/ops, "ratio", fmt.Sprintf("%d of %d", s.failed, s.attempted))
	r.set("rpc.frames_per_flush", ratio(t.framesOut, t.flushes), "count", fmt.Sprintf("%d frames, %d flushes", t.framesOut, t.flushes))
	r.set("node.write_syscalls_per_op", float64(syscw)/ops, "count", "")
	r.set("rpc.bytes_out_per_op", float64(t.bytesOut)/served, "B", fmt.Sprintf("%.0f calls served", served))
	r.set("rpc.bytes_in_per_op", float64(t.bytesIn)/served, "B", "")
	r.set("rpc.dedup_replays", float64(t.dedupReplays), "count", "")
	r.set("replica.proposals_per_round", ratio(t.proposals, t.rounds), "count", fmt.Sprintf("%d proposals, %d rounds", t.proposals, t.rounds))
	r.set("replica.batch_mean", weighted(batchW, t.batchN), "count", fmt.Sprintf("%d AppendEntries frames", t.batchN))
	r.set("replica.window_mean", weighted(windowW, t.windowN), "count", "")
	r.set("replica.reads_per_confirm_round", ratio(t.reads, t.readRounds), "count", fmt.Sprintf("%d reads, %d rounds", t.reads, t.readRounds))
	r.set("replica.read_retries", float64(t.retries), "count", "")
	r.set("node.write_bytes_per_op", float64(wbytes)/ops, "B", "")
	r.set("node.ctx_switches_per_op", float64(ctxsw)/ops, "count", "")
	r.set("node.cpu_share_busiest", ratio(uint64(busiest), uint64(dcpu)), "ratio", fmt.Sprintf("%v of %v", busiest, dcpu))
	r.set("loadgen.lag_p99_ms", ms(s.lagP99), "ms", fmt.Sprintf("n=%d", s.n))
	r.set("loadgen.cpu_us_per_op", float64(ps.gen.Microseconds())/ops, "us", "")

	// Traced, at each boundary.
	callMean, nCall := mean(spans, func(x *span) bool { return x.kind == spanCall })
	serveMean, nServe := mean(spans, func(x *span) bool { return x.kind == spanServe && (w.name != "fabric-append" || x.entry == "Append") })
	r.set("trace.call_us", us(callMean), "us", fmt.Sprintf("n=%d", nCall))
	r.set("trace.serve_us", us(serveMean), "us", fmt.Sprintf("n=%d", nServe))
	r.set("trace.p50_ms", ms(s2.p50), "ms", fmt.Sprintf("n=%d, in-process; alpsd p50_ms %.4f", s2.n, ms(s.p50)))
	r.set("trace.overhead_ms", ms(s2.p50-s.p50), "ms", "traced p50 - untraced p50")
	r.set("rpc.self_us", us(callMean-serveMean), "us", "mean call - mean serve")

	puts := 0
	for i, o := range p2.ops {
		if o.class == classWrite && p2.recs[i].ok {
			puts++
		}
	}
	isPut := func(x *span) bool { return x.entry == "Put" }
	applyMean, nApply := mean(spans, func(x *span) bool { return x.kind == spanApply && isPut(x) })
	leaderApply, _ := mean(spans, func(x *span) bool { return x.kind == spanApply && isPut(x) && int(x.member) == leader })
	servePut, nServePut := mean(spans, func(x *span) bool { return x.kind == spanServe && isPut(x) })
	fsyncMean, nFsync := mean(spans, func(x *span) bool { return x.kind == spanFsync })
	ops2 := float64(s2.attempted)
	consensus := time.Duration(0)
	if nServePut > 0 {
		consensus = servePut - leaderApply
	}
	r.set("replica.apply_us", us(applyMean), "us", fmt.Sprintf("n=%d", nApply))
	r.set("replica.applies_per_put", float64(nApply)/float64(max(puts, 1)), "count", fmt.Sprintf("%d acknowledged puts", puts))
	r.set("replica.consensus_self_us", us(consensus), "us", "serve(Put) - leader apply(Put)")
	r.set("replica.peer_writes_per_op", float64(peerW)/ops2, "count", "")
	r.set("replica.peer_bytes_per_op", float64(peerB)/ops2, "B", "")
	r.set("wal.fsyncs_per_op", float64(fs1-fs0)/ops2, "count", "")
	r.set("wal.records_per_op", float64(recs1-recs0)/ops2, "count", "")
	r.set("wal.fsync_us", us(fsyncMean), "us", fmt.Sprintf("n=%d", nFsync))
	route := time.Duration(0)
	if w.name == "fabric-append" {
		route = callMean - serveMean
	}
	r.set("fabric.route_self_us", us(route), "us", "mean Router.Append - mean serve(Append)")
	r.set("runtime.allocs_per_op", (rt1.allocs-rt0.allocs)/ops2, "count", "whole process: generator and servers")
	r.set("runtime.alloc_bytes_per_op", (rt1.allocBytes-rt0.allocBytes)/ops2, "B", "")
	r.set("runtime.gc_cpu_fraction", (rt1.gcCPU-rt0.gcCPU)/max(rt1.totalCPU-rt0.totalCPU, 1e-9), "ratio", "")
	return nil
}

func traceCalls(rec *recorder) func(caller) caller {
	return func(next caller) caller {
		return func(ctx context.Context, id int, o op) (error, error) {
			start := time.Now()
			err, cerr := next(ctx, id, o)
			rec.add(spanCall, 0, classNames[o.class], int64(id), start)
			return err, cerr
		}
	}
}

// warmCalls and auditCalls count the calls a deployment serves besides
// the generated ones.
func warmCalls(w spec) int {
	if w.name == "fabric-append" {
		return conns * 3
	}
	return conns
}

func auditCalls(w spec) int {
	if w.name == "fabric-append" {
		return 0
	}
	return w.keys
}

type runtimeTotals struct {
	allocs, allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeTotals {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeTotals{v(0), v(1), v(2), v(3)}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func weighted(sum float64, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
