package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// The fixtures under testdata are real files: /proc/<pid>/{stat,io,status}
// of a running alpsd, the aggregate line of /proc/stat, and what alpsd
// printed on SIGTERM as a managed node, a Registry leader and a Registry
// follower.
func fixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseStat(t *testing.T) {
	b := fixture(t, "stat")
	cpu, err := parseStat(b)
	if err != nil || cpu != 0 {
		t.Fatalf("parseStat(fixture) = %v, %v; want 0 (the daemon had used no full tick)", cpu, err)
	}
	// The same line with CPU time spent and a command name that holds a
	// space and a ')': fields count from the last ')'.
	f := strings.Fields(string(b))
	f[1] = "(alps d))"
	f[13], f[14] = "12", "34"
	cpu, err = parseStat([]byte(strings.Join(f, " ")))
	if want := 46 * clockTick; err != nil || cpu != want {
		t.Fatalf("parseStat = %v, %v; want %v", cpu, err, want)
	}
	if _, err := parseStat([]byte("4014 (alpsd) S 1 2")); err == nil {
		t.Fatal("parseStat accepted a truncated line")
	}
}

func TestParseIOAndStatus(t *testing.T) {
	io := parseKV(fixture(t, "io"))
	if io["syscw"] != 7 || io["write_bytes"] != 0 || io["rchar"] == 0 {
		t.Fatalf("io: %v", io)
	}
	st := parseKV(fixture(t, "status"))
	if st["VmHWM"] != 6420 || st["voluntary_ctxt_switches"] != 3 || st["nonvoluntary_ctxt_switches"] != 5 {
		t.Fatalf("status: VmHWM %d, switches %d+%d", st["VmHWM"], st["voluntary_ctxt_switches"], st["nonvoluntary_ctxt_switches"])
	}
	if _, ok := st["Name"]; ok {
		t.Fatal("status: a non-numeric value was kept")
	}
}

func TestParseCPULine(t *testing.T) {
	got := parseCPULine(fixture(t, "procstat"))
	// cpu 163094 0 64628 643743 9916 0 16225 19528 0 0
	want := cpuTicks{steal: 19528, total: 163094 + 64628 + 643743 + 9916 + 16225 + 19528}
	if got != want {
		t.Fatalf("parseCPULine = %+v, want %+v", got, want)
	}
	if s := (cpuTicks{steal: 1, total: 4}).share(); s != 0.25 {
		t.Fatalf("share = %v", s)
	}
}

func TestParseDrain(t *testing.T) {
	m, err := parseDrain(string(fixture(t, "drain-managed")))
	if err != nil {
		t.Fatal(err)
	}
	if (m != drain{bytesOut: 95, bytesIn: 190, framesOut: 4, framesIn: 4, flushes: 6}) {
		t.Fatalf("managed: %+v", m)
	}
	l, err := parseDrain(string(fixture(t, "drain-leader")))
	if err != nil {
		t.Fatal(err)
	}
	want := drain{
		bytesOut: 216, bytesIn: 540, framesOut: 12, framesIn: 12, flushes: 24,
		proposals: 6, rounds: 6,
		batchMean: 0.1, batchN: 128, windowMean: 1.0, windowN: 140,
		reads: 6, readRounds: 6,
	}
	if l != want {
		t.Fatalf("leader: %+v\nwant    %+v", l, want)
	}
	f, err := parseDrain(string(fixture(t, "drain-follower")))
	if err != nil {
		t.Fatal(err)
	}
	if f.framesOut != 71 || f.flushes != 72 || f.batchN != 0 || f.batchMean != 0 || f.reads != 0 {
		t.Fatalf("follower: %+v", f)
	}
	if _, err := parseDrain("alpsd listening on 127.0.0.1:1\nobjects: []\n"); err == nil {
		t.Fatal("parseDrain accepted output without a drain line")
	}
}

func TestParseHist(t *testing.T) {
	for _, c := range []struct {
		in   string
		mean float64
		n    uint64
	}{
		{"empty", 0, 0},
		{"≤1:12 2:3 (mean 2.4)", 2.4, 15},
		{"≤1:5 ≤8:9 >128:1 (mean 12.0)", 12, 15},
	} {
		mean, n := parseHist(c.in)
		if mean != c.mean || n != c.n {
			t.Errorf("parseHist(%q) = %v, %d; want %v, %d", c.in, mean, n, c.mean, c.n)
		}
	}
}

func TestReadProcSelf(t *testing.T) {
	s, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if s.hwmKB == 0 || s.ctxSw == 0 {
		t.Fatalf("readProc(self) = %+v", s)
	}
	if s.cpu < 0 || s.cpu > time.Hour {
		t.Fatalf("cpu %v", s.cpu)
	}
}
