package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rendezvous/internal/serve"
	"rendezvous/internal/simulator"
	"rendezvous/internal/tablecache"
)

const (
	drainTimeout  = 30 * time.Second
	healthTimeout = 10 * time.Second
	// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat times.
	clockTicks = 100
)

// daemon is one rvserve the client talks to: a subprocess (cmd set), or
// a serve.Server hosted in this process for the traced run (srv set).
type daemon struct {
	base string

	cmd     *exec.Cmd
	exit    chan procExit // delivered once the subprocess has exited
	stopped bool

	srv      *serve.Server
	hs       *http.Server
	serveErr chan error
	restore  func()
}

// procExit is the subprocess's stdout after its listen line, and the
// result of waiting for it.
type procExit struct {
	out string
	err error
}

// startDaemon execs rvserve on an ephemeral loopback port and waits for
// its listen line.
func startDaemon(bin string, workers int) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(workers))
	cmd.Stderr = os.Stderr
	// The daemon must not outlive the benchmark, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rvserve: %w", err)
	}
	d := &daemon{cmd: cmd, exit: make(chan procExit, 1)}
	r := bufio.NewReader(stdout)
	first, _ := r.ReadString('\n')
	first = strings.TrimSpace(first)
	go func() {
		rest, _ := io.ReadAll(r) // EOF once the daemon exits
		d.exit <- procExit{out: string(rest), err: cmd.Wait()}
	}()
	const prefix = "rvserve: listening on "
	addr, _, ok := strings.Cut(strings.TrimPrefix(first, prefix), " ")
	if !strings.HasPrefix(first, prefix) || !ok {
		d.kill()
		return nil, fmt.Errorf("rvserve: unexpected first line %q", first)
	}
	d.base = "http://" + addr
	return d, nil
}

// startInProcess hosts serve.NewServer on a loopback listener, with a
// fresh table cache so it starts as cold as a new daemon.
func startInProcess(cfg serve.Config) (*daemon, error) {
	restore := freshTableCache()
	cfg.Cache = simulator.TableCache()
	srv := serve.NewServer(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		restore()
		return nil, err
	}
	d := &daemon{
		base: "http://" + ln.Addr().String(),
		srv:  srv, hs: &http.Server{Handler: srv.Handler()},
		serveErr: make(chan error, 1), restore: restore,
	}
	go func() { d.serveErr <- d.hs.Serve(ln) }()
	return d, nil
}

// freshTableCache installs an empty table cache for engines built from
// here on and returns the function that puts the previous one back.
func freshTableCache() (restore func()) {
	prev := simulator.SetTableCache(tablecache.New(tablecache.DefaultBudget))
	return func() { simulator.SetTableCache(prev) }
}

// waitHealthy polls /v1/healthz until it answers 200.
func (d *daemon) waitHealthy(ctx context.Context, c *client) error {
	deadline := time.Now().Add(healthTimeout)
	for {
		code, _, err := c.do(ctx, http.MethodGet, "/v1/healthz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fmt.Errorf("rvserve not healthy after %v: status %d: %v", healthTimeout, code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// cpuTime is the subprocess's user plus system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS is the subprocess's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// stop drains the daemon and returns the cache entries still pinned
// after the drain. A subprocess gets SIGTERM and must print its drain
// line and exit 0.
func (d *daemon) stop() (pinned int, err error) {
	d.stopped = true
	if d.srv != nil {
		defer d.restore()
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := d.hs.Shutdown(ctx); err != nil {
			return 0, fmt.Errorf("http shutdown: %w", err)
		}
		if err := <-d.serveErr; !errors.Is(err, http.ErrServerClosed) {
			return 0, fmt.Errorf("serve: %w", err)
		}
		return d.srv.Drain(drainTimeout).Pinned, nil
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	ex := <-d.exit
	_, line, ok := strings.Cut(ex.out, "rvserve: drained ")
	if !ok {
		return 0, fmt.Errorf("rvserve printed no drain line (exit: %v)", ex.err)
	}
	var done, failed, aborted, canceled int
	if _, err := fmt.Sscanf(line, "done=%d failed=%d aborted=%d canceled=%d pinned=%d",
		&done, &failed, &aborted, &canceled, &pinned); err != nil {
		return 0, fmt.Errorf("parse drain line %q: %w", line, err)
	}
	if ex.err != nil {
		return pinned, fmt.Errorf("rvserve exit: %w", ex.err)
	}
	return pinned, nil
}

// kill ends a daemon that was not stopped cleanly and waits for it.
func (d *daemon) kill() {
	if d.stopped {
		return
	}
	if d.srv != nil {
		_, _ = d.stop() // the caller is already reporting a failure
		return
	}
	d.stopped = true
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.exit
}
