// Command perfbench measures real alpsd deployments under open-loop load.
//
// For one workload and one seed it boots the workload's alpsd processes
// on loopback, drives them from this one process at Poisson-distributed
// due times, checks every answer and the final state, and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object with the run's result. With -trace 0 the nominal phase is
// spread over five boots and the end-to-end metrics are reported; with
// -trace 1 the per-layer ones: /proc counters and drain totals of one
// boot, a capacity search on a second, then the same schedule against
// the objects hosted in this process with every layer boundary timed.
// See README.md.
//
//	perfbench -alpsd ALPSD -workdir DIR -workload NAME -seed N -seconds S -trace 0|1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"
)

type config struct {
	alpsd, workdir string
	w              spec
	seed           uint64
	seconds        int
	trace          bool
}

func main() {
	var c config
	var name string
	var trace int
	flag.StringVar(&c.alpsd, "alpsd", "", "alpsd binary to run")
	flag.StringVar(&c.workdir, "workdir", "", "directory for data directories and span files")
	flag.StringVar(&name, "workload", "", "workload: managed-rw, replicated-registry or fabric-append")
	flag.Uint64Var(&c.seed, "seed", 1, "seed of the generated calls")
	flag.IntVar(&c.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics, 0 end-to-end metrics")
	flag.Parse()
	c.trace = trace == 1
	w, err := lookupSpec(name)
	if err == nil && (c.alpsd == "" || c.workdir == "") {
		err = errors.New("-alpsd and -workdir are required")
	}
	if err == nil && c.seconds < 2 {
		err = errors.New("-seconds must be at least 2")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	c.w = w
	res, err := run(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics and prints each as it is set.
type report struct {
	res    result
	checks checks
}

func (r *report) set(name string, v float64, unit, note string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
	r.note(name, v, unit, note)
}

// note prints a figure without reporting it as one of the run's metrics.
func (r *report) note(name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Printf("%-32s %12.4f %s%s\n", name, v, unit, note)
}

// checks gathers output-check failures from concurrent calls.
type checks struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (c *checks) add(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	if len(c.first) < 5 {
		c.first = append(c.first, err.Error())
	}
}

func (c *checks) failed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n > 0
}

func run(c config) (*result, error) {
	// Two busy threads at most, as many as the box has cores; a larger
	// heap target keeps the generator's own collections out of the tail.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	debug.SetGCPercent(400)
	dir := filepath.Join(c.workdir, fmt.Sprintf("%s-%d-%d", c.w.name, c.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fmt.Printf("perfbench %s seed %d, %ds, trace %v; nproc %d, %s, commit %s\n",
		c.w.name, c.seed, c.seconds, c.trace, runtime.NumCPU(), runtime.Version(), commit())
	r := &report{res: result{Correct: true, Metrics: map[string]metric{}}}
	var err error
	if c.trace {
		err = runTraced(c, dir, r)
	} else {
		err = runEndToEnd(c, dir, r)
	}
	if err != nil {
		return nil, err
	}
	if r.checks.failed() {
		r.res.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d output checks failed; first: %s\n", r.checks.n, strings.Join(r.checks.first, "; "))
	}
	return &r.res, nil
}

// commit names the source the benchmark was built from, when the build
// recorded it.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// deployment is a running workload under test: alpsd processes or the
// in-process copy.
type deployment struct {
	cl     client
	l      *ledger
	chain  bool
	checks *checks
}

func connect(ctx context.Context, w spec, addrs []string, fabricSpec string, seed uint64, ck *checks) (*deployment, error) {
	d := &deployment{l: &ledger{}, checks: ck, chain: w.name == "fabric-append"}
	var err error
	switch w.name {
	case "managed-rw":
		d.cl, err = dialManaged(ctx, addrs[0], d.l, w)
	case "replicated-registry":
		d.cl, err = dialRegistry(ctx, addrs, d.l, w)
	case "fabric-append":
		d.cl, err = newAppender(fabricSpec, w, seed)
	}
	if err != nil {
		return nil, err
	}
	if err := d.cl.warm(ctx); err != nil {
		d.cl.close()
		return nil, err
	}
	return d, nil
}

func (d *deployment) run(ops []op, timeout time.Duration, wrap func(caller) caller) *phase {
	p := d.l.add(ops, timeout)
	send := caller(d.cl.send)
	if wrap != nil {
		send = wrap(send)
	}
	drive(p, send, d.chain, d.checks.add)
	return p
}

// audit checks the final state; a divergence fails the run's checks.
func (d *deployment) audit() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.cl.audit(ctx, d.l); err != nil {
		d.checks.add(err)
	}
}

// bootAndConnect starts the workload's daemons and waits for a first
// successful call on every generator connection, returning the time that
// took.
func bootAndConnect(c config, dir string, ck *checks) (*cluster, *deployment, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	cl, err := boot(c.w, c.alpsd, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	ring, err := cl.ringSpec()
	if err == nil {
		var d *deployment
		if d, err = connect(ctx, c.w, cl.addrs(), ring, c.seed, ck); err == nil {
			return cl, d, time.Since(start), nil
		}
	}
	{
		out := ""
		for _, p := range cl.procs {
			out += " [" + p.id + ": " + tail(p.out.String()) + "]"
		}
		cl.kill()
		return nil, nil, 0, fmt.Errorf("connect to %s: %w;%s", c.w.name, err, out)
	}
}

// setups is how many times an end-to-end run boots the deployment. Each
// boot is timed, carries an equal share of the nominal phase, and is
// audited; every end-to-end metric is the median over the boots, so one
// boot that drew a slow leader placement or a burst of steal moves it
// little.
const setups = 5

// probes is how many capacity probes a per-layer run makes.
const probes = 6

// windowLen is the length of the slices latency statistics are taken
// over.
const windowLen = time.Second

// nominalTimeout bounds one call at the nominal rate; it should never
// fire.
const nominalTimeout = 2 * time.Second

// failLimit is the share of failed calls a capacity probe tolerates.
const failLimit = 0.001

// pass is one boot of the daemons that ran a nominal phase.
type pass struct {
	p      *phase
	deltas []procSample  // per daemon, over the phase
	gen    time.Duration // the generator's own CPU over the phase
	drains []drain       // what each daemon printed at shutdown
	served int           // calls the daemons served in their life
}

// nominalPass runs ops on a booted deployment, audits it and drains the
// daemons.
func nominalPass(w spec, cl *cluster, d *deployment, ops []op) (pass, error) {
	defer cl.kill()
	defer d.cl.close()
	before, err := cl.sample()
	if err != nil {
		return pass{}, err
	}
	g0 := selfCPU()
	p := d.run(ops, nominalTimeout, nil)
	g1 := selfCPU()
	after, err := cl.sample()
	if err != nil {
		return pass{}, err
	}
	d.audit()
	d.cl.close()
	drains, err := cl.stop()
	if err != nil {
		return pass{}, err
	}
	deltas := make([]procSample, len(after))
	for i := range after {
		deltas[i] = after[i].sub(before[i])
	}
	return pass{p: p, deltas: deltas, gen: g1 - g0, drains: drains,
		served: d.l.next + warmCalls(w) + auditCalls(w)}, nil
}

// runEndToEnd reports the end-to-end metrics: the nominal phase spread
// over setups boots of the daemons.
func runEndToEnd(c config, dir string, r *report) error {
	w := c.w
	per := time.Duration(c.seconds) * time.Second / setups
	var setupTimes, p50s, writeP50s, cpus, rsss []float64
	var phases []*phase
	for b := 0; b < setups; b++ {
		nominal, err := schedule(w, c.seed*setups+uint64(b), w.rate, per)
		if err != nil {
			return err
		}
		cl, d, took, err := bootAndConnect(c, filepath.Join(dir, fmt.Sprint("boot", b)), &r.checks)
		if err != nil {
			return err
		}
		setupTimes = append(setupTimes, took.Seconds())
		ps, err := nominalPass(w, cl, d, nominal)
		if err != nil {
			return err
		}
		phases = append(phases, ps.p)
		var cpu time.Duration
		var hwm uint64
		for _, x := range ps.deltas {
			cpu += x.cpu
			hwm += x.hwmKB
		}
		s := summarize(windowLen, ps.p)
		p50s = append(p50s, ms(s.p50))
		writeP50s = append(writeP50s, ms(s.classP50[classWrite]))
		cpus = append(cpus, float64(cpu.Microseconds())/float64(s.attempted-s.failed))
		rsss = append(rsss, float64(hwm)/1024)
	}
	s := summarize(windowLen, phases...)
	r.res.Attempted, r.res.Failed = s.attempted, s.failed
	boots := func(xs []float64, f string) string {
		return fmt.Sprintf("median of %d boots: %s", setups, fmtList(xs, f))
	}
	r.set("setup_s", median(setupTimes), "s", boots(setupTimes, "%.3f"))
	r.set("rss_mb", median(rsss), "MB", "summed VmHWM after the nominal phase, "+boots(rsss, "%.1f"))
	// Latency and CPU time are printed, not reported: on a guest whose
	// hypervisor takes CPU time in bursts they follow the neighbours.
	// README.md, "What is bounded", has the numbers.
	r.note("cpu_us_per_op", median(cpus), "us", boots(cpus, "%.1f"))
	r.note("p50_ms", median(p50s), "ms", fmt.Sprintf("%s; n=%d of %d at %.0f/s", boots(p50s, "%.3f"), s.n, s.attempted, w.rate))
	r.note("write.p50_ms", median(writeP50s), "ms", fmt.Sprintf("%s; n=%d", boots(writeP50s, "%.3f"), s.classN[classWrite]))
	r.note("read.p50_ms", ms(s.readP50), "ms", fmt.Sprintf("pooled, n=%d", s.classN[classRead]+s.classN[classSearch]))
	r.note("p90_ms", ms(s.p90win), "ms", fmt.Sprintf("median of %d window p90s", s.windows))
	r.note("p99_ms", ms(s.p99win), "ms", fmt.Sprintf("median of %d window p99s; pooled p99 %.3f ms, n=%d", s.windows, ms(s.p99), s.n))
	r.note("node.steal_share", s.steal, "ratio", fmt.Sprintf("latencies use the quieter half of the windows, steal at most %.3f", s.quietSteal))
	r.note("loadgen.lag_p99_ms", ms(s.lagP99), "ms", fmt.Sprintf("%d calls, %d failed, largest end backlog %d", s.attempted, s.failed, s.backlog))
	if s.failed > 0 {
		fmt.Printf("failed calls:%s\n", failures(phases...))
	}
	return nil
}

// runCapacity boots the daemons once and searches for max_rate_ops_s
// with probes of dur each.
func runCapacity(c config, dir string, dur time.Duration, ck *checks) (float64, error) {
	cl, d, _, err := bootAndConnect(c, dir, ck)
	if err != nil {
		return 0, err
	}
	defer cl.kill()
	defer d.cl.close()
	search := capacity{rate: c.w.rate}
	for k := 0; k < probes; k++ {
		if err := search.probe(c, d, dur); err != nil {
			return 0, err
		}
	}
	d.audit()
	d.cl.close()
	if _, err := cl.stop(); err != nil {
		return 0, err
	}
	return search.result(), nil
}

// capacity searches for the highest offered rate a probe passes at. A
// probe's excess is the largest of: its p99 (the median of its window
// p99s) over the workload's limit, the failed share over failLimit, the
// backlog at its end over the limit's worth of arrivals, and the
// generator's own lag p99 (again the median over windows) over half the
// limit (a generator that lags offers less than it claims, so its probe
// cannot pass). A probe passes
// when its excess is at most 1. The search doubles from the nominal rate
// until a probe fails, then bisects geometrically; the result
// interpolates, in log-log, the rate at which the excess crosses 1
// between the best passing and the lowest failing probe.
type capacity struct {
	rate, lo, hi, exLo, exHi float64
	n                        int
}

func (cp *capacity) probe(c config, d *deployment, dur time.Duration) error {
	w := c.w
	ops, err := schedule(w, c.seed*1000003+uint64(cp.n)+1, cp.rate, dur)
	if err != nil {
		return err
	}
	p := d.run(ops, 20*w.limit, nil)
	s := summarize(dur/5, p)
	ex := max(ms(s.p99win)/ms(w.limit),
		float64(s.failed)/float64(max(s.attempted, 1))/failLimit,
		float64(s.backlog)/max(8, cp.rate*w.limit.Seconds()),
		ms(s.lagWin)/ms(w.limit/2))
	fmt.Printf("probe %d: %8.0f/s  p99 %8.3f ms (pooled %.3f)  failed %d/%d  backlog %d  lag p99 %.3f ms (pooled %.3f)  excess %.2f\n",
		cp.n, cp.rate, ms(s.p99win), ms(s.p99), s.failed, s.attempted, s.backlog, ms(s.lagWin), ms(s.lagP99), ex)
	if s.failed > 0 {
		fmt.Printf("  failed calls:%s\n", failures(p))
	}
	cp.n++
	if ex <= 1 {
		cp.lo, cp.exLo = cp.rate, ex
	} else {
		cp.hi, cp.exHi = cp.rate, ex
		// Let the daemons drain what the failed probe queued.
		time.Sleep(300 * time.Millisecond)
	}
	switch {
	case cp.hi == 0:
		cp.rate = cp.lo * 2
	case cp.lo == 0:
		cp.rate = cp.hi / 2
	default:
		cp.rate = math.Sqrt(cp.lo * cp.hi)
	}
	return nil
}

func (cp *capacity) result() float64 {
	switch {
	case cp.lo == 0:
		fmt.Printf("no capacity probe passed, not even at %.0f/s\n", cp.hi)
		return 0
	case cp.hi == 0:
		return cp.lo // every probe passed: a lower bound
	}
	f := math.Log(1/cp.exLo) / math.Log(cp.exHi/cp.exLo)
	return cp.lo * math.Pow(cp.hi/cp.lo, min(max(f, 0), 1))
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return strings.Join(parts, " ")
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
