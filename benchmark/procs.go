package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Spawned-server management: every daisd/daisgw runs as a separate OS
// process in its own process group, pinned to one scheduler thread
// (GOMAXPROCS=1), logging to benchmark/out, and is reaped on every
// exit path.

// healthDeadline bounds the wait for a spawned server's /healthz.
const healthDeadline = 10 * time.Second

// proc is one spawned server.
type proc struct {
	label string
	base  string // http://127.0.0.1:port
	log   string
	cmd   *exec.Cmd
	done  chan struct{} // closed once Wait returned
}

// procSet tracks the live children so that a signal handler (or a
// failing set-up) can reap them all.
type procSet struct {
	mu    sync.Mutex
	procs []*proc
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve port: %w", err)
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// spawn starts bin with args plus "-addr <free port>" and waits for its
// /healthz to answer. The server's flags never carry the seed or the
// workload name: label only names the log file. The port is reserved by
// binding and releasing it, which another process can win in between,
// so a server that dies before it is healthy is started again on a
// fresh port.
func (ps *procSet) spawn(ctx context.Context, outDir, label, bin string, args ...string) (*proc, error) {
	var err error
	for attempt := 0; attempt < 3 && ctx.Err() == nil; attempt++ {
		var p *proc
		if p, err = ps.spawnOnce(ctx, outDir, label, bin, args...); err == nil {
			return p, nil
		}
	}
	return nil, err
}

func (ps *procSet) spawnOnce(ctx context.Context, outDir, label, bin string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logPath := filepath.Join(outDir, label+".log")
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", label, err)
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	// Own process group, so the whole group can be signalled; and a
	// parent-death signal, so a generator killed outright (SIGKILL, no
	// handler runs) still takes its servers with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	err = startPinned(cmd)
	logFile.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("spawn %s: %w", label, err)
	}
	p := &proc{label: label, base: "http://" + addr, log: logPath, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is read from ProcessState
		close(p.done)
	}()
	if err := p.awaitHealthy(ctx); err != nil {
		err = fmt.Errorf("%s: %w\n--- tail of %s ---\n%s", label, err, logPath, tailOf(logPath, 20))
		p.kill()
		return nil, err
	}
	ps.mu.Lock()
	ps.procs = append(ps.procs, p)
	ps.mu.Unlock()
	return p, nil
}

// kill ends the process group at once and waits for the process.
func (p *proc) kill() {
	syscall.Kill(-p.pid(), syscall.SIGKILL) //nolint:errcheck // already gone is fine
	<-p.done
}

// The parent-death signal fires when the *thread* that forked the
// child exits, not the process, so every child is started from one
// goroutine locked to an OS thread that lives as long as the program.
var (
	pinnedOnce  sync.Once
	pinnedStart chan func()
)

func startPinned(cmd *exec.Cmd) error {
	pinnedOnce.Do(func() {
		pinnedStart = make(chan func())
		go func() {
			runtime.LockOSThread()
			for f := range pinnedStart {
				f()
			}
		}()
	})
	errc := make(chan error, 1)
	pinnedStart <- func() { errc <- cmd.Start() } // the child inherits this thread's one-core CPU set
	return <-errc
}

// awaitHealthy polls /healthz until it answers 200, the process dies or
// the deadline passes.
func (p *proc) awaitHealthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, healthDeadline)
	defer cancel()
	hc := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("process exited before becoming healthy (%v)", p.cmd.ProcessState)
		case <-ctx.Done():
			return fmt.Errorf("no healthy /healthz within %v", healthDeadline)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// alive reports whether the process is still running.
func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// pid is the child's process id.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// stopAll terminates every live child (SIGTERM to the group, SIGKILL
// after a grace period) and waits for each to be reaped.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for _, p := range procs {
		if p.alive() {
			syscall.Kill(-p.pid(), syscall.SIGTERM) //nolint:errcheck // already gone is fine
		}
	}
	for _, p := range procs {
		select {
		case <-p.done:
		case <-time.After(2 * time.Second):
			p.kill()
		}
	}
}

// died names a child that exited on its own, or "".
func (ps *procSet) died() string {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, p := range ps.procs {
		if !p.alive() {
			return fmt.Sprintf("%s (%v), log %s", p.label, p.cmd.ProcessState, p.log)
		}
	}
	return ""
}

// tailOf returns the last n lines of a file.
func tailOf(path string, n int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// clockTick is the kernel's USER_HZ, the unit of /proc/stat and
// /proc/<pid>/stat CPU times; it is 100 on every Linux platform Go
// supports.
const clockTick = 100

// cpuMillis reads the CPU time a process has used. The scheduler's own
// count (/proc/<pid>/task/*/schedstat, nanoseconds on the core's
// clock: time the host took the core away is not in it) is preferred;
// user+system ticks from /proc/<pid>/stat are the fallback.
func cpuMillis(pid string) (float64, error) {
	if tasks, err := os.ReadDir("/proc/" + pid + "/task"); err == nil && len(tasks) > 0 {
		var nanos float64
		ok := true
		for _, t := range tasks {
			data, err := os.ReadFile("/proc/" + pid + "/task/" + t.Name() + "/schedstat")
			f := strings.Fields(string(data))
			if err != nil || len(f) == 0 {
				ok = false
				break
			}
			v, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				ok = false
				break
			}
			nanos += v
		}
		if ok {
			return nanos / 1e6, nil
		}
	}
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%s/stat: malformed", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: short", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: bad cpu fields", pid)
	}
	return (utime + stime) * 1000 / clockTick, nil
}

// selfCPUMillis is the CPU time this process has used, less the
// yardstick's share of it: what the generator spent being a client.
func selfCPUMillis() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano())/1e6 - yard.usedMillis()
}

// cpuMillis sums the CPU time of the live children.
func (ps *procSet) cpuMillis() float64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var total float64
	for _, p := range ps.procs {
		if ms, err := cpuMillis(strconv.Itoa(p.pid())); err == nil {
			total += ms
		}
	}
	return total
}

// separate: the servers are processes of their own, so their CPU time
// is not in the generator's.
func (ps *procSet) separate() bool { return true }

// rssPeakMB sums the peak resident sets of the live children.
func (ps *procSet) rssPeakMB() float64 {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var total float64
	for _, p := range ps.procs {
		total += rssPeakMB(p.pid())
	}
	return total
}

// rssPeakMB reads a process's peak resident set (VmHWM).
func rssPeakMB(pid int) float64 {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}
