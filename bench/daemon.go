package main

// daemon.go builds cmd/cvserved once and runs it as a child process over
// loopback. Process hygiene is the point of this file: a stale daemon
// answering on the port would silently corrupt every number, so the port
// must be silent before the spawn, the child runs in its own process group,
// the group is killed and the run directory removed on every exit path
// (normal, error, timeout, SIGINT/SIGTERM), and the kernel kills the child
// if the harness itself is killed.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fixed daemon configuration, stated explicitly so the numbers do not
// silently change with the host's core count.
const (
	daemonGOMAXPROCS = "2"
	daemonReplicas   = "2"
	daemonOrder      = "prob"
	snapshotEvery    = 16
)

// env is one benchmark process's build output and scratch space, all under
// the checkout's .bench_build directory.
type env struct {
	root     string // checkout root (holds go.mod)
	buildDir string // .bench_build
	runDir   string // .bench_build/run-<pid>, removed on exit
	cvserved string // built daemon binary

	// mu guards daemons and closed, and is held across a spawn and its
	// registration so that close never misses a child that has started.
	mu      sync.Mutex
	daemons map[*daemon]struct{}
	closed  bool
}

// newEnv locates the checkout, builds the daemon and prepares the run
// directory. Everything a run writes lands under .bench_build.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, buildDir: filepath.Join(root, ".bench_build"), daemons: map[*daemon]struct{}{}}
	e.runDir = filepath.Join(e.buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	e.cvserved = filepath.Join(e.buildDir, "cvserved")
	cmd := exec.Command("go", "build", "-o", e.cvserved, "./cmd/cvserved")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("building cmd/cvserved: %v\n%s", err, out)
	}
	return e, nil
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "cvserved")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repro module (no go.mod with cmd/cvserved above the working directory)")
		}
		dir = parent
	}
}

// close kills every daemon still running, refuses further boots and removes
// the run directory.
func (e *env) close() {
	e.mu.Lock()
	e.closed = true
	live := make([]*daemon, 0, len(e.daemons))
	for d := range e.daemons {
		live = append(live, d)
	}
	e.mu.Unlock()
	for _, d := range live {
		d.stop()
	}
	os.RemoveAll(e.runDir)
}

// closeOnSignal makes SIGINT/SIGTERM take the same exit path as an error.
func (e *env) closeOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		e.close()
		os.Exit(130)
	}()
}

// runLimit bounds one workload's run; the driver allows 180 s.
const runLimit = 170 * time.Second

// watchdog arms the timeout exit path for one workload's run: past runLimit
// the daemons are killed, the run directory removed and the process exits
// without a result. The returned function disarms it.
func (e *env) watchdog(name string) (disarm func()) {
	t := time.AfterFunc(runLimit, func() {
		warnf("%s: no result after %v, giving up", name, runLimit)
		e.close()
		os.Exit(3)
	})
	return func() { t.Stop() }
}

// daemon is one running cvserved child.
type daemon struct {
	env    *env
	cmd    *exec.Cmd
	addr   string
	base   string
	dir    string // per-boot directory: CSV, rules, data dir, log
	client *http.Client
	waited chan struct{}
}

// freePort asks the kernel for an unused loopback port, then insists that
// nothing answers on it: a listener we did not start means a stale daemon.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		return "", fmt.Errorf("something already answers on %s; refusing to benchmark against it", addr)
	}
	return addr, nil
}

// boot writes the workload's inputs, spawns the daemon and waits for
// /healthz. The returned time is the moment of the spawn.
func (e *env) boot(w *workload, seq int) (*daemon, time.Time, error) {
	dir := filepath.Join(e.runDir, fmt.Sprintf("%s-boot%d", w.Name, seq))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, time.Time{}, err
	}
	csvPath := filepath.Join(dir, "cust.csv")
	rulesPath := filepath.Join(dir, "rules.txt")
	if err := os.WriteFile(csvPath, w.csv(), 0o644); err != nil {
		return nil, time.Time{}, err
	}
	if err := os.WriteFile(rulesPath, []byte(w.Rules), 0o644); err != nil {
		return nil, time.Time{}, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, time.Time{}, err
	}
	args := []string{"-addr", addr, "-table", table + "=" + csvPath, "-constraints", rulesPath,
		"-replicas", daemonReplicas, "-order", daemonOrder}
	if w.Durable {
		args = append(args, "-data-dir", filepath.Join(dir, "data"), "-fsync", "batch", "-snapshot-every", strconv.Itoa(snapshotEvery))
	}
	if w.Shards > 0 {
		args = append(args, "-shards", strconv.Itoa(w.Shards), "-shard-key", table+".city")
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, time.Time{}, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.cvserved, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+daemonGOMAXPROCS)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Pdeathsig covers the one exit path the harness cannot run: its own
	// SIGKILL.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, time.Time{}, errors.New("benchmark is shutting down")
	}
	spawned := time.Now()
	if err := cmd.Start(); err != nil {
		e.mu.Unlock()
		return nil, time.Time{}, fmt.Errorf("spawning cvserved: %w", err)
	}
	d := &daemon{
		env: e, cmd: cmd, addr: addr, base: "http://" + addr, dir: dir,
		// One keep-alive connection: the closed loop has one request in
		// flight at a time.
		client: &http.Client{Transport: &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}, Timeout: 60 * time.Second},
		waited: make(chan struct{}),
	}
	e.daemons[d] = struct{}{}
	e.mu.Unlock()
	go func() { _ = cmd.Wait(); close(d.waited) }()
	if err := d.waitHealthy(60 * time.Second); err != nil {
		d.stop()
		return nil, time.Time{}, err
	}
	return d, spawned, nil
}

func (d *daemon) waitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-d.waited:
			return fmt.Errorf("cvserved exited during boot:\n%s", d.logTail())
		default:
		}
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("cvserved not healthy on %s after %v:\n%s", d.addr, limit, d.logTail())
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(filepath.Join(d.dir, "daemon.log"))
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// stop kills the daemon's process group, waits for the child and removes
// its directory. Idempotent.
func (d *daemon) stop() {
	d.env.mu.Lock()
	_, live := d.env.daemons[d]
	delete(d.env.daemons, d)
	d.env.mu.Unlock()
	if !live {
		return
	}
	d.client.CloseIdleConnections()
	_ = syscall.Kill(-d.cmd.Process.Pid, syscall.SIGKILL)
	<-d.waited
	os.RemoveAll(d.dir)
}

// reply is one completed request.
type reply struct {
	sent    time.Time
	status  int
	body    []byte
	latency time.Duration
	err     error
}

// do sends one op and reads the whole reply. The latency covers the request
// write through the last body byte.
func (d *daemon) do(o op, traced bool) reply {
	url := d.base + o.Path
	if traced {
		url += "?trace=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(string(o.Body)))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	sent := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{sent: sent, err: err, latency: time.Since(sent)}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{sent: sent, status: resp.StatusCode, body: body, latency: time.Since(sent), err: err}
}

// getJSON fetches a GET endpoint into out.
func (d *daemon) getJSON(path string, out any) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// procStatus reads the daemon's peak resident set (VmHWM, kB) from
// /proc/<pid>/status.
func (d *daemon) peakRSSKB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// cpuTicks reads the daemon's user+system CPU time in clock ticks from
// /proc/<pid>/stat (fields 14 and 15; the comm field may hold spaces, so
// fields are counted after its closing parenthesis).
func (d *daemon) cpuTicks() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unparsable /proc stat CPU fields")
	}
	return ut + st, nil
}
