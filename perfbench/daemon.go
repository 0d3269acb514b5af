package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"lfsc/internal/serve"
)

// bootTimeout bounds one daemon boot (exec to first 200 from /v1/stats).
const bootTimeout = 30 * time.Second

// stopTimeout bounds a graceful SIGTERM shutdown before SIGKILL.
const stopTimeout = 15 * time.Second

// buildDaemon compiles cmd/lfscd from the tree at root into dir. It runs
// on every invocation, so a stale binary is never measured.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "lfscd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lfscd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build lfscd: %w", err)
	}
	return bin, nil
}

// daemon is one lfscd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once cmd.Wait has returned
}

// pid returns the child's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill stops the child with SIGKILL and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // fails only if the process is already gone
	<-d.done
}

// stop shuts the child down gracefully (SIGTERM: finish the slot in
// flight, flush sinks, write the final checkpoint), falling back to
// SIGKILL after stopTimeout. It waits for the process either way.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(stopTimeout):
		d.kill()
	}
}

// supervisor owns every child the benchmark starts, so each exit path —
// normal return, error, or a signal to the benchmark — can stop them all.
type supervisor struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

func newSupervisor() *supervisor { return &supervisor{live: map[*daemon]bool{}} }

// killAll SIGKILLs every child still running and waits for each.
func (s *supervisor) killAll() {
	s.mu.Lock()
	ds := make([]*daemon, 0, len(s.live))
	for d := range s.live {
		ds = append(ds, d)
	}
	s.mu.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// start execs bin with args and blocks until the daemon answers
// /v1/stats with 200. It returns the daemon and its set-up time: exec to
// that first 200.
func (s *supervisor) start(bin string, args []string, hc *http.Client) (*daemon, time.Duration, error) {
	log := newStderrLog()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = log
	cmd.Stderr = log
	// The child dies with the benchmark even if the benchmark is killed
	// before it can clean up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start lfscd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	s.mu.Lock()
	s.live[d] = true
	s.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status is reported through the log tail
		s.mu.Lock()
		delete(s.live, d)
		s.mu.Unlock()
		close(d.done)
	}()

	deadline := time.NewTimer(bootTimeout)
	defer deadline.Stop()
	select {
	case d.addr = <-log.addr:
	case <-d.done:
		return nil, 0, fmt.Errorf("lfscd exited during boot:\n%s", log.tail())
	case <-deadline.C:
		d.kill()
		return nil, 0, fmt.Errorf("lfscd did not print its address within %v:\n%s", bootTimeout, log.tail())
	}
	for {
		if _, err := fetchStats(hc, d.addr); err == nil {
			return d, time.Since(t0), nil
		}
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("lfscd exited during boot:\n%s", log.tail())
		case <-deadline.C:
			d.kill()
			return nil, 0, fmt.Errorf("lfscd /v1/stats not ready within %v:\n%s", bootTimeout, log.tail())
		case <-time.After(200 * time.Microsecond):
		}
	}
}

// fetchStats reads the daemon's /v1/stats.
func fetchStats(hc *http.Client, addr string) (*serve.Stats, error) {
	resp, err := hc.Get("http://" + addr + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("/v1/stats: %w", err)
	}
	return &st, nil
}

// statsAt polls /v1/stats until the daemon has completed slot count
// slots (its final Observe has landed), or times out.
func statsAt(hc *http.Client, addr string, slots int) (*serve.Stats, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := fetchStats(hc, addr)
		if err != nil {
			return nil, err
		}
		if st.Slot >= slots {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("daemon stuck at slot %d, want %d", st.Slot, slots)
		}
		time.Sleep(time.Millisecond)
	}
}

// stderrLog collects a daemon's output: it keeps the last lines for
// error reports and hands over the listen address from the
// "serving http://host:port/..." boot line.
type stderrLog struct {
	mu    sync.Mutex
	buf   []byte // unterminated remainder
	lines []string
	addr  chan string
	found bool
}

const logKeep = 40

func newStderrLog() *stderrLog { return &stderrLog{addr: make(chan string, 1)} }

// Write implements io.Writer.
func (l *stderrLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	for {
		i := bytes.IndexByte(l.buf, '\n')
		if i < 0 {
			break
		}
		line := string(l.buf[:i])
		l.buf = l.buf[i+1:]
		if len(l.lines) == logKeep {
			l.lines = l.lines[1:]
		}
		l.lines = append(l.lines, line)
		if !l.found {
			if a, ok := servingAddr(line); ok {
				l.found = true
				l.addr <- a
			}
		}
	}
	return len(p), nil
}

// tail returns the last lines the daemon printed.
func (l *stderrLog) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	lines := l.lines
	if len(l.buf) > 0 {
		lines = append(append([]string(nil), lines...), string(l.buf))
	}
	return strings.Join(lines, "\n")
}

// servingAddr parses host:port out of lfscd's boot line
// "lfscd: serving http://127.0.0.1:41234/lfsc/status (...)".
func servingAddr(line string) (string, bool) {
	_, rest, ok := strings.Cut(line, "serving http://")
	if !ok {
		return "", false
	}
	addr, _, _ := strings.Cut(rest, "/")
	if addr == "" || !strings.Contains(addr, ":") {
		return "", false
	}
	return addr, true
}
