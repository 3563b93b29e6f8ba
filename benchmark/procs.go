package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what every run shares: where the module is, where scratch
// files go, and the server binaries built once per invocation.
type env struct {
	root      string // module root (holds go.mod)
	outDir    string // benchmark/out, git-ignored
	simserver string
	simrouter string
}

// findRoot walks up from the working directory to the module root, so
// the harness works from `go run ./benchmark` (cwd = root) and from
// `go test` (cwd = benchmark/).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from the repository")
		}
		dir = parent
	}
}

// newEnv builds the real simserver and simrouter binaries into
// benchmark/out/bin. Build time is not part of any metric.
func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "benchmark", "out")}
	bin := filepath.Join(e.outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator), "./cmd/simserver", "./cmd/simrouter")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build simserver simrouter: %w\n%s", err, out)
	}
	e.simserver = filepath.Join(bin, "simserver")
	e.simrouter = filepath.Join(bin, "simrouter")
	return e, nil
}

// freePorts asks the kernel for n distinct free loopback ports. All
// listeners are held until every port is known, so the n are distinct;
// the small window between closing them and the child binding is the
// usual price of passing a port by flag.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// lockedBuffer collects a child's stdout and stderr; exec's copier
// goroutine writes while a readiness failure may read.
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

// child is one server-side process under test.
type child struct {
	name   string
	cmd    *exec.Cmd
	log    lockedBuffer
	exited chan struct{} // closed once Wait has returned
}

// fleet is the set of children of one topology. stop must run on every
// exit path; Pdeathsig covers the one path it cannot (the harness
// itself dying without unwinding).
type fleet struct {
	children []*child
}

// start launches one child in its own process group, so stop can kill
// it together with anything it forks.
func (f *fleet) start(name, bin string, args ...string) error {
	c := &child{name: name, cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	c.cmd.Stdout = &c.log
	c.cmd.Stderr = &c.log
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", name, err)
	}
	f.children = append(f.children, c)
	go func() {
		// The exit status is irrelevant: children only ever end by the
		// SIGKILL stop sends, or by crashing, which readiness and the
		// load window report as failures of their own.
		_ = c.cmd.Wait()
		close(c.exited)
	}()
	return nil
}

// stop kills every child's process group and waits until each child has
// been reaped. Safe to call more than once.
func (f *fleet) stop() {
	for _, c := range f.children {
		// ESRCH (already gone) is the only expected error.
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
	}
	for _, c := range f.children {
		<-c.exited
	}
}

func (f *fleet) pids() []int {
	pids := make([]int, len(f.children))
	for i, c := range f.children {
		pids[i] = c.cmd.Process.Pid
	}
	return pids
}

// logs renders every child's captured output, for failure reports.
func (f *fleet) logs() string {
	var sb strings.Builder
	for _, c := range f.children {
		fmt.Fprintf(&sb, "--- %s (pid %d) ---\n%s", c.name, c.cmd.Process.Pid, c.log.String())
	}
	return sb.String()
}

// readyTimeout is generous: the slowest set-up at full scale (two
// shards preprocessing the social graph on two cores) takes ~6 s.
const readyTimeout = 90 * time.Second

// waitReady polls the front door's /readyz until it answers 200. A
// child that exits first, the timeout, or cancellation ends the wait
// with the children's logs in the error.
func (f *fleet) waitReady(ctx context.Context, base string) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.NewTimer(readyTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		for _, c := range f.children {
			select {
			case <-c.exited:
				return fmt.Errorf("%s exited before the topology was ready\n%s", c.name, f.logs())
			default:
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline.C:
			return fmt.Errorf("not ready after %v\n%s", readyTimeout, f.logs())
		case <-tick.C:
		}
	}
}

// topology is a started fleet plus its front door.
type topology struct {
	fleet
	base   string        // front-door base URL
	setup  time.Duration // first spawn to /readyz 200
	routed bool
}

// startTopology spawns the workload's processes and waits for the front
// door: one stand-alone simserver, or two shards behind a simrouter
// with the shipped transport and hedging defaults. On error nothing is
// left running.
func startTopology(ctx context.Context, e *env, w workload, graphPath string) (*topology, error) {
	t := &topology{routed: w.routed}
	nports := 1
	if w.routed {
		nports = 5
	}
	ports, err := freePorts(nports)
	if err != nil {
		return nil, err
	}
	addr := func(i int) string { return "127.0.0.1:" + strconv.Itoa(ports[i]) }
	t.base = "http://" + addr(0)
	start := time.Now()
	if w.routed {
		for i := 0; i < 2 && err == nil; i++ {
			err = t.start(fmt.Sprintf("shard%d", i), e.simserver, "-graph", graphPath,
				"-shard", fmt.Sprintf("%d/2", i), "-addr", addr(1+2*i), "-bin-addr", addr(2+2*i))
		}
		if err == nil {
			err = t.start("router", e.simrouter, "-addr", addr(0), "-probe-retry", "50ms",
				"-shards", "http://"+addr(1)+",http://"+addr(3))
		}
	} else {
		args := []string{"-graph", graphPath, "-addr", addr(0)}
		if w.cacheBytes > 0 {
			args = append(args, "-cache-bytes", strconv.FormatInt(w.cacheBytes, 10))
		}
		err = t.start("simserver", e.simserver, args...)
	}
	if err == nil {
		err = t.waitReady(ctx, t.base)
	}
	if err != nil {
		t.stop()
		return nil, err
	}
	t.setup = time.Since(start)
	return t, nil
}

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat counts CPU time
// in these. It is 100 on every Linux port Go supports.
const clockTick = 100

// procCPU returns user+system CPU seconds consumed so far by pid.
func procCPU(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces and parentheses;
	// everything after the last ')' is well-formed.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the command name", pid, len(fields))
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseUint(fields[12], 10, 64) // field 15
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	return float64(utime+stime) / clockTick, nil
}

// procPeakRSS returns pid's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: VmHWM: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}

// sumOver adds fn over the pids.
func sumOver(pids []int, fn func(int) (float64, error)) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		v, err := fn(pid)
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// selfCPU returns the harness's own user+system CPU seconds.
func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}
