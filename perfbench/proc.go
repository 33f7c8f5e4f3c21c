package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// procSample is one reading of a process's counters from /proc.
type procSample struct {
	cpu        time.Duration // utime+stime, all threads
	syscw      uint64        // write-class syscalls (/proc/<pid>/io)
	writeBytes uint64        // bytes sent to the storage layer
	ctxSw      uint64        // voluntary+involuntary switches, summed over live threads
	hwmKB      uint64        // peak resident set (VmHWM)
}

func (a procSample) sub(b procSample) procSample {
	return procSample{
		cpu:        a.cpu - b.cpu,
		syscw:      a.syscw - b.syscw,
		writeBytes: a.writeBytes - b.writeBytes,
		ctxSw:      a.ctxSw - b.ctxSw,
		hwmKB:      a.hwmKB,
	}
}

// readProc samples pid's counters.
func readProc(pid int) (procSample, error) {
	dir := fmt.Sprintf("/proc/%d", pid)
	var s procSample
	b, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return s, err
	}
	if s.cpu, err = parseStat(b); err != nil {
		return s, err
	}
	if b, err = os.ReadFile(dir + "/io"); err != nil {
		return s, err
	}
	io := parseKV(b)
	s.syscw, s.writeBytes = io["syscw"], io["write_bytes"]
	if b, err = os.ReadFile(dir + "/status"); err != nil {
		return s, err
	}
	s.hwmKB = parseKV(b)["VmHWM"]
	// Context switches in /proc/<pid>/status are the main thread's only;
	// the process total is the sum over its threads.
	tasks, err := filepath.Glob(dir + "/task/*/status")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // the thread exited between the glob and the read
		}
		kv := parseKV(b)
		s.ctxSw += kv["voluntary_ctxt_switches"] + kv["nonvoluntary_ctxt_switches"]
	}
	return s, nil
}

// parseStat returns utime+stime from a /proc/<pid>/stat line. The command
// name in parentheses may hold spaces, so fields are counted from the
// last ')'.
func parseStat(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command terminator")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("stat: bad utime/stime %q %q", f[11], f[12])
	}
	return time.Duration(ut+st) * clockTick, nil
}

// parseKV reads "key: value [unit]" lines (/proc/<pid>/io and status),
// keeping the leading integer of each value. Lines whose value does not
// start with an integer are skipped.
func parseKV(b []byte) map[string]uint64 {
	kv := make(map[string]uint64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		if n, err := strconv.ParseUint(f[0], 10, 64); err == nil {
			kv[k] = n
		}
	}
	return kv
}

// drain holds the counters alpsd prints when it shuts down on SIGTERM:
// transport totals on every node, replication totals on group members.
type drain struct {
	bytesOut, bytesIn     uint64
	framesOut, framesIn   uint64
	flushes, dedupReplays uint64

	proposals, rounds, combined uint64
	batchMean, windowMean       float64 // 0 when the histogram is empty
	batchN, windowN             uint64  // observations behind each mean
	reads, readRounds, retries  uint64
}

var (
	transportRe = regexp.MustCompile(`^alpsd: transport: (\d+) B out / (\d+) B in, (\d+) frames out / (\d+) in, (\d+) flushes \([^)]*\), (\d+) dedup replays$`)
	replRe      = regexp.MustCompile(`^alpsd: replication: (\d+) proposals in (\d+) rounds \((\d+) combined\), batch (.*), window (.*)$`)
	readsRe     = regexp.MustCompile(`^alpsd: replication reads: (\d+) served via ReadIndex \((\d+) confirm rounds, (\d+) retries bounced\)$`)
	histMeanRe  = regexp.MustCompile(`\(mean ([0-9.]+)\)$`)
	histBktRe   = regexp.MustCompile(`(?:^| )[^ :]+:(\d+)`)
)

// parseDrain extracts the drain counters from one alpsd's standard
// output. It fails if the transport line is missing: every node prints
// it, so its absence means the process did not shut down cleanly.
func parseDrain(out string) (drain, error) {
	var d drain
	seen := false
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if m := transportRe.FindStringSubmatch(line); m != nil {
			u := atous(m[1:])
			d.bytesOut, d.bytesIn, d.framesOut, d.framesIn, d.flushes, d.dedupReplays = u[0], u[1], u[2], u[3], u[4], u[5]
			seen = true
		} else if m := replRe.FindStringSubmatch(line); m != nil {
			u := atous(m[1:4])
			d.proposals, d.rounds, d.combined = u[0], u[1], u[2]
			d.batchMean, d.batchN = parseHist(m[4])
			d.windowMean, d.windowN = parseHist(m[5])
		} else if m := readsRe.FindStringSubmatch(line); m != nil {
			u := atous(m[1:])
			d.reads, d.readRounds, d.retries = u[0], u[1], u[2]
		}
	}
	if !seen {
		return d, fmt.Errorf("no transport drain line in alpsd output")
	}
	return d, nil
}

// parseHist reads a metrics.SizeHist rendering ("≤1:12 2:3 (mean 2.4)" or
// "empty") into its mean and observation count.
func parseHist(s string) (float64, uint64) {
	m := histMeanRe.FindStringSubmatch(s)
	if m == nil {
		return 0, 0
	}
	mean, _ := strconv.ParseFloat(m[1], 64)
	var n uint64
	for _, b := range histBktRe.FindAllStringSubmatch(strings.TrimSuffix(s, m[0]), -1) {
		c, _ := strconv.ParseUint(b[1], 10, 64)
		n += c
	}
	return mean, n
}

func atous(ss []string) []uint64 {
	out := make([]uint64, len(ss))
	for i, s := range ss {
		out[i], _ = strconv.ParseUint(s, 10, 64)
	}
	return out
}

// cpuTicks is the machine-wide steal and total CPU time from /proc/stat.
type cpuTicks struct{ steal, total uint64 }

func (a cpuTicks) sub(b cpuTicks) cpuTicks { return cpuTicks{a.steal - b.steal, a.total - b.total} }
func (a cpuTicks) add(b cpuTicks) cpuTicks { return cpuTicks{a.steal + b.steal, a.total + b.total} }

// share is the fraction of the machine's CPU time a hypervisor gave to
// other guests: latency measured while it is high is the neighbours'.
func (a cpuTicks) share() float64 {
	if a.total == 0 {
		return 0
	}
	return float64(a.steal) / float64(a.total)
}

func readSteal() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	return parseCPULine(b)
}

// parseCPULine reads the aggregate "cpu" line of /proc/stat: user nice
// system idle iowait irq softirq steal ...
func parseCPULine(b []byte) cpuTicks {
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := strings.Fields(string(line))
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, x := range f[1:] {
		n, _ := strconv.ParseUint(x, 10, 64)
		if i == 7 {
			t.steal = n
		}
		if i < 8 { // guest time is already inside user and nice
			t.total += n
		}
	}
	return t
}
