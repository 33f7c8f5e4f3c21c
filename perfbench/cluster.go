package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/fabric"
)

// proc is one running alpsd.
type proc struct {
	id   string
	addr string
	cmd  *exec.Cmd
	out  *lockedBuffer
	done chan struct{} // closed once the process has been waited on
}

// lockedBuffer collects a child's output; exec writes it from its own
// goroutine while the benchmark may read it for diagnostics.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func startProc(bin, id, addr string, args ...string) (*proc, error) {
	out := &lockedBuffer{}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-name", id}, args...)...)
	cmd.Stdout, cmd.Stderr = out, out
	// The daemons must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start alpsd %s: %w", id, err)
	}
	p := &proc{id: id, addr: addr, cmd: cmd, out: out, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// stop asks the daemon to drain (SIGTERM), waits for it, and returns its
// output. A daemon that does not exit within the grace period is killed
// and reported.
func (p *proc) stop() (string, error) {
	select {
	case <-p.done:
		return p.out.String(), fmt.Errorf("alpsd %s exited early: %s", p.id, tail(p.out.String()))
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return p.out.String(), nil
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return p.out.String(), fmt.Errorf("alpsd %s ignored SIGTERM for 10s", p.id)
	}
}

func tail(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) > 5 {
		lines = lines[len(lines)-5:]
	}
	return strings.Join(lines, " | ")
}

// cluster is the set of daemons one workload runs against.
type cluster struct {
	procs []*proc
	dir   string // per-boot data directories live under it
}

// freeAddrs reserves n loopback ports by binding and releasing them.
func freeAddrs(n int) ([]string, error) {
	var lis []net.Listener
	defer func() {
		for _, l := range lis {
			_ = l.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lis = append(lis, l)
		addrs[i] = l.Addr().String()
	}
	return addrs, nil
}

// memberSpec renders "id=addr,..." in id order, the -peers and
// -fabric-members format.
func memberSpec(ids, addrs []string) string {
	parts := make([]string, len(ids))
	for i := range ids {
		parts[i] = ids[i] + "=" + addrs[i]
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// boot starts the daemons of workload w with fresh data directories
// under dir.
func boot(w spec, bin, dir string) (*cluster, error) {
	c := &cluster{dir: dir}
	n := 3
	if w.name == "managed-rw" {
		n = 1
	}
	addrs, err := freeAddrs(n)
	if err != nil {
		return nil, err
	}
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i)
	}
	members := memberSpec(ids, addrs)
	for i, id := range ids {
		var args []string
		switch w.name {
		case "managed-rw":
			args = []string{"-search-cost", "0"}
		case "replicated-registry":
			args = []string{"-replica-id", id, "-peers", members, "-data-dir", filepath.Join(dir, id)}
		case "fabric-append":
			args = []string{"-fabric-id", id, "-fabric-members", members, "-data-dir", filepath.Join(dir, id)}
		}
		p, err := startProc(bin, id, addrs[i], args...)
		if err != nil {
			c.kill()
			return nil, err
		}
		c.procs = append(c.procs, p)
	}
	return c, nil
}

func (c *cluster) addrs() []string {
	out := make([]string, len(c.procs))
	for i, p := range c.procs {
		out[i] = p.addr
	}
	return out
}

// ringSpec is the fabric ring the daemons boot with: epoch 0, alpsd's
// default placement seed (1) and virtual-node count.
func (c *cluster) ringSpec() (string, error) {
	members := make(map[string]string, len(c.procs))
	for _, p := range c.procs {
		members[p.id] = p.addr
	}
	ring, err := fabric.NewRing(0, 1, 0, members)
	if err != nil {
		return "", err
	}
	return ring.Spec(), nil
}

// sample reads every daemon's counters.
func (c *cluster) sample() ([]procSample, error) {
	out := make([]procSample, len(c.procs))
	for i, p := range c.procs {
		s, err := readProc(p.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("alpsd %s: %w", p.id, err)
		}
		out[i] = s
	}
	return out, nil
}

// stop drains every daemon and parses its drain lines, then removes the
// data directories.
func (c *cluster) stop() ([]drain, error) {
	var firstErr error
	drains := make([]drain, len(c.procs))
	for i, p := range c.procs {
		out, err := p.stop()
		if err == nil {
			drains[i], err = parseDrain(out)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := os.RemoveAll(c.dir); err != nil && firstErr == nil {
		firstErr = err
	}
	return drains, firstErr
}

// kill ends every daemon without a drain (error paths).
func (c *cluster) kill() {
	for _, p := range c.procs {
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	_ = os.RemoveAll(c.dir)
}
