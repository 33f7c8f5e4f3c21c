package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// rec is the outcome of one generated call.
type rec struct {
	lag  time.Duration // dispatch time − due time (generator lateness)
	lat  time.Duration // completion − due time; the phase timeout if failed
	ok   bool
	sent bool // false when the call was refused before it left (backlog cap)
}

// caller makes one generated call. id is the call's run-wide number
// (unique values written by the call derive from it); it returns an error
// for a failed call and a non-nil check error for a wrong answer.
type caller func(ctx context.Context, id int, o op) (err, check error)

// phase is one open-loop stretch at a fixed offered rate.
type phase struct {
	ops     []op
	recs    []rec
	base    int           // run-wide id of ops[0]
	timeout time.Duration // per call, measured from its due time
	// backlog is the number of calls still outstanding when the last
	// arrival was due: an open loop whose backlog grows across a phase
	// has passed its capacity.
	backlog int64
	start   time.Time
	elapsed time.Duration
	steal   []stealSample  // machine steal, sampled while the phase runs
	errs    map[string]int // failed calls by error
}

func trim(s string) string {
	if len(s) > 160 {
		return s[:160] + "…"
	}
	return s
}

// failures lists the errors of the failed calls of ps, most frequent
// first.
func failures(ps ...*phase) string {
	n := make(map[string]int)
	for _, p := range ps {
		for e, c := range p.errs {
			n[e] += c
		}
	}
	keys := make([]string, 0, len(n))
	for e := range n {
		keys = append(keys, e)
	}
	sort.Slice(keys, func(i, j int) bool { return n[keys[i]] > n[keys[j]] })
	var b strings.Builder
	for _, e := range keys {
		fmt.Fprintf(&b, "\n  %d × %s", n[e], e)
	}
	return b.String()
}

// maxInflight bounds the calls outstanding at once. A call that comes due
// beyond it fails at once: only an overload probe can get there.
const maxInflight = 4096

// drive runs one phase open-loop: every call is sent at its due time
// from a dispatcher on a locked OS thread, whatever the state of earlier
// calls, and timed from that due time. It returns once every call has
// completed or timed out. chain, when non-nil, serializes the calls of
// one key: the fabric's per-key sequence numbers need each append to wait
// for its predecessor, and that wait counts in the later call's latency.
func drive(p *phase, send caller, chain bool, checkErr func(error)) {
	p.recs = make([]rec, len(p.ops))
	p.errs = make(map[string]int)
	var errMu sync.Mutex
	var inflight atomic.Int64
	var wg sync.WaitGroup
	var last map[int32]chan struct{}
	if chain {
		last = make(map[int32]chan struct{})
	}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(stealEvery)
		defer tick.Stop()
		for {
			p.steal = append(p.steal, stealSample{time.Now(), readSteal()})
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	runtime.LockOSThread()
	start := time.Now()
	p.start = start
	for i := range p.ops {
		o := p.ops[i]
		due := start.Add(o.due)
		sleepUntil(due)
		now := time.Now()
		r := &p.recs[i]
		r.lag = now.Sub(due)
		if inflight.Load() >= maxInflight {
			r.lat = p.timeout
			errMu.Lock()
			p.errs["backlog cap: not sent"]++
			errMu.Unlock()
			continue
		}
		var prev, mine chan struct{}
		if chain {
			prev, mine = last[o.key], make(chan struct{})
			last[o.key] = mine
		}
		r.sent = true
		inflight.Add(1)
		wg.Add(1)
		go func(id int, o op, r *rec, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			if mine != nil {
				defer close(mine)
			}
			ctx, cancel := context.WithDeadline(context.Background(), due.Add(p.timeout))
			defer cancel()
			if prev != nil {
				// Wait even past the deadline: a key's calls must never
				// overlap, and a call whose deadline passed fails at once.
				<-prev
			}
			err, cerr := send(ctx, id, o)
			end := time.Now()
			if cerr != nil {
				checkErr(cerr)
			}
			r.ok = err == nil
			if err != nil {
				errMu.Lock()
				p.errs[trim(err.Error())]++
				errMu.Unlock()
			}
			r.lat = end.Sub(due)
			if !r.ok {
				r.lat = max(r.lat, p.timeout)
			}
		}(p.base+i, o, r, due)
	}
	p.backlog = inflight.Load()
	runtime.UnlockOSThread()
	wg.Wait()
	p.elapsed = time.Since(start)
	close(stop)
	<-sampled
}

// stealEvery is how often a phase samples the machine's steal time.
const stealEvery = 100 * time.Millisecond

type stealSample struct {
	at    time.Time
	ticks cpuTicks
}

// stealBetween is the machine's CPU time and steal between the last
// sample at or before from and the first at or after to.
func (p *phase) stealBetween(from, to time.Time) cpuTicks {
	if len(p.steal) < 2 {
		return cpuTicks{}
	}
	i := sort.Search(len(p.steal), func(i int) bool { return p.steal[i].at.After(from) })
	j := sort.Search(len(p.steal), func(j int) bool { return !p.steal[j].at.Before(to) })
	i = max(i-1, 0)
	j = min(j, len(p.steal)-1)
	if j <= i {
		return cpuTicks{}
	}
	return p.steal[j].ticks.sub(p.steal[i].ticks)
}

// sleepUntil blocks the dispatcher's OS thread until t. Go's timers wake
// about a millisecond late for sub-millisecond waits on a busy 2-core
// box; a nanosleep on a locked thread overshoots by tens of
// microseconds. The blocking syscall hands the thread's P to the call
// goroutines while it sleeps. (Keeping the P with a raw syscall cut the
// dispatcher's lag on fabric-append but left the call goroutines one P,
// which raised managed-rw's p50 by a third.)
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// stats summarizes one or more phases. Latency figures come from the
// quieter half of the windows: the machine is a guest of a hypervisor
// whose other guests take CPU time from it in bursts (steal), and a call
// whose daemon was not running for a few milliseconds measures the
// neighbours, not alpsd. attempted, failed and backlog count everything.
type stats struct {
	attempted, failed int
	n                 int           // calls in the quiet windows
	p50, p99          time.Duration // pooled over the quiet windows
	// p99win is the median over the quiet windows of each window's p99:
	// a stall that hits a few windows moves it little, a tail every
	// window shares moves it fully.
	p99win   time.Duration
	p90win   time.Duration
	windows  int // quiet windows with at least minWindow calls
	classP50 [numClasses]time.Duration
	classN   [numClasses]int
	readP50  time.Duration // calls that change nothing (reads and searches)
	lagP99   time.Duration
	lagWin   time.Duration // median over quiet windows of the window lag p99
	backlog  int64         // the largest backlog at the end of a phase
	steal    float64       // steal share over the phases
	// quietSteal is the largest steal share among the windows used.
	quietSteal float64
}

// minWindow is the fewest calls a window needs for its p99 to count: ten
// beyond the 99th percentile.
const minWindow = 1000

type window struct {
	lat, lag []time.Duration
	class    []uint8
	steal    float64
}

// summarize pools the calls of ps; windows are win long, counted from
// each phase's start.
func summarize(win time.Duration, ps ...*phase) stats {
	var s stats
	var ws []*window
	var steal cpuTicks
	for _, p := range ps {
		s.attempted += len(p.recs)
		s.backlog = max(s.backlog, p.backlog)
		if len(p.ops) == 0 {
			continue
		}
		pw := make([]window, int(p.ops[len(p.ops)-1].due/win)+1)
		for i, r := range p.recs {
			if !r.ok {
				s.failed++
			}
			w := &pw[int(p.ops[i].due/win)]
			w.lat = append(w.lat, r.lat)
			w.lag = append(w.lag, r.lag)
			w.class = append(w.class, p.ops[i].class)
		}
		for k := range pw {
			from := p.start.Add(time.Duration(k) * win)
			pw[k].steal = p.stealBetween(from, from.Add(win)).share()
			ws = append(ws, &pw[k])
		}
		steal = steal.add(p.stealBetween(p.start, p.start.Add(p.elapsed)))
	}
	s.steal = steal.share()
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].steal < ws[j].steal })
	quiet := ws[:(len(ws)+1)/2]

	var all, lags, reads []time.Duration
	var byClass [numClasses][]time.Duration
	var winP99, winP90, winLag []float64
	for _, w := range quiet {
		s.quietSteal = max(s.quietSteal, w.steal)
		all = append(all, w.lat...)
		lags = append(lags, w.lag...)
		for i, c := range w.class {
			byClass[c] = append(byClass[c], w.lat[i])
			if c != classWrite {
				reads = append(reads, w.lat[i])
			}
		}
		if len(w.lat) >= minWindow {
			q := quantiles(append([]time.Duration(nil), w.lat...), 0.99, 0.9)
			winP99 = append(winP99, float64(q[0]))
			winP90 = append(winP90, float64(q[1]))
			winLag = append(winLag, float64(quantiles(append([]time.Duration(nil), w.lag...), 0.99)[0]))
		}
	}
	s.n = len(all)
	q := quantiles(all, 0.5, 0.99)
	s.p50, s.p99 = q[0], q[1]
	s.lagP99 = quantiles(lags, 0.99)[0]
	s.readP50 = quantiles(reads, 0.5)[0]
	for c := range byClass {
		s.classN[c] = len(byClass[c])
		s.classP50[c] = quantiles(byClass[c], 0.5)[0]
	}
	s.windows = len(winP99)
	s.p99win = time.Duration(median(winP99))
	s.p90win = time.Duration(median(winP90))
	s.lagWin = time.Duration(median(winLag))
	if s.windows == 0 {
		s.p99win, s.lagWin = s.p99, s.lagP99
	}
	return s
}
