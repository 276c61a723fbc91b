package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one started service binary. Its output goes to a log file in
// the run directory, which is echoed to standard error if the run fails.
type child struct {
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// procSet owns every child of a run, so that each is killed and reaped
// on every exit path.
type procSet struct {
	mu   sync.Mutex
	kids []*child
}

// start launches bin with args in its own process group. The child is
// killed if the benchmark itself dies without stopping it.
func (ps *procSet) start(bin, logPath string, args ...string) (*child, error) {
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, log: log, done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		close(c.done)
	}()
	ps.mu.Lock()
	ps.kids = append(ps.kids, c)
	ps.mu.Unlock()
	return c, nil
}

// stop asks the child to drain with SIGTERM, kills its process group if
// it has not exited within two seconds, and waits until it is reaped.
func (c *child) stop() {
	select {
	case <-c.done:
	default:
		_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGTERM)
		select {
		case <-c.done:
		case <-time.After(2 * time.Second):
			_ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL)
			<-c.done
		}
	}
	c.log.Close()
}

// exited reports whether the child has already exited.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// logTail returns the last lines of the child's log.
func (c *child) logTail() string {
	b, err := os.ReadFile(c.log.Name())
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// stopAll stops every child that is still running.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	kids := ps.kids
	ps.kids = nil
	ps.mu.Unlock()
	for _, c := range kids {
		c.stop()
	}
}

// freePort returns a loopback port that was free a moment ago.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitLog polls the child's log until a line contains marker and returns
// that line, or fails when the child exits or ctx ends.
func waitLog(ctx context.Context, c *child, marker string) (string, error) {
	for {
		if line, ok := findLine(c.log.Name(), marker); ok {
			return line, nil
		}
		if c.exited() {
			return "", fmt.Errorf("%s exited before %q: %v\n%s", c.cmd.Path, marker, c.err, c.logTail())
		}
		select {
		case <-ctx.Done():
			return "", fmt.Errorf("waiting for %q: %w", marker, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func findLine(path, marker string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if strings.Contains(sc.Text(), marker) {
			return sc.Text(), true
		}
	}
	return "", false
}

// waitHTTP polls url until it answers 200, or fails when the child exits
// or ctx ends.
func waitHTTP(ctx context.Context, client *http.Client, c *child, url string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if c != nil && c.exited() {
			return fmt.Errorf("%s exited before %s answered: %v\n%s", c.cmd.Path, url, c.err, c.logTail())
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for %s: %w", url, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// procStatus reads a "kB" field such as VmHWM from /proc/<pid>/status and
// returns it in megabytes.
func procStatusMB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// peakRSSMB returns the child's peak resident set size so far.
func (c *child) peakRSSMB() (float64, error) {
	return procStatusMB(strconv.Itoa(c.cmd.Process.Pid), "VmHWM")
}

// selfPeakRSSMB returns this process's peak resident set size so far.
func selfPeakRSSMB() (float64, error) { return procStatusMB("self", "VmHWM") }

// cpuSeconds returns the user plus system CPU time the child has used.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	s := string(b)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return (ut + st) / 100, nil // USER_HZ is 100 on Linux
}

// selfCPUSeconds returns this process's user plus system CPU time.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func nproc() int {
	out, err := exec.Command("nproc").Output()
	if err != nil {
		return 0
	}
	n, _ := strconv.Atoi(strings.TrimSpace(string(out)))
	return n
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
		}
	}
	return "unknown"
}

// gitCommit names the commit under test, or "unknown" when the working
// directory is not the top of a git checkout.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return string(bytes.TrimSpace(out))
}
