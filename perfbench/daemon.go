package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one cachemapd child process and the single keep-alive
// connection the load generator drives it over.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	client  *http.Client
	logDone chan struct{}
	exited  chan struct{}
	waitErr error
	buf     bytes.Buffer
}

// startDaemon launches bin and returns once it logs its listening address.
// The child's stderr (its structured log) is copied to logPath.
func startDaemon(bin, storeDir, logPath string, flags []string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-repair", "-store-dir", storeDir}, flags...)
	cmd := exec.Command(bin, args...)
	// If the load generator dies, the daemon must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, logDone: make(chan struct{}), exited: make(chan struct{})}
	ready := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if !found && strings.Contains(line, "msg=listening") {
				for _, f := range strings.Fields(line) {
					if a, ok := strings.CutPrefix(f, "addr="); ok {
						found = true
						ready <- a
						break
					}
				}
			}
		}
		// Drain anything past a scanner error so the child never blocks.
		io.Copy(io.Discard, stderr)
	}()
	go func() {
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	select {
	case addr := <-ready:
		d.base = "http://" + addr
	case <-d.exited:
		<-d.logDone
		return nil, fmt.Errorf("cachemapd exited before listening: %v (log: %s)", d.waitErr, logPath)
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("cachemapd did not report listening within 30s (log: %s)", logPath)
	}
	d.client = &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain (SIGTERM), kills it if it has not exited
// after 20s, and waits for the process and its log copier.
func (d *daemon) stop() error {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
	}
	<-d.logDone
	var ee *exec.ExitError
	if d.waitErr != nil && !errors.As(d.waitErr, &ee) {
		return d.waitErr
	}
	if d.waitErr != nil {
		return fmt.Errorf("cachemapd exited: %v", d.waitErr)
	}
	return nil
}

// do sends one request and reads the whole response body into d.buf,
// which stays valid until the next call.
func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	d.buf.Reset()
	_, err = d.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, d.buf.Bytes(), nil
}

// scrape reads /metrics into series → value, the series keyed exactly as
// exposed (name plus label set).
func (d *daemon) scrape() (map[string]float64, error) {
	status, body, err := d.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseMetrics(body), nil
}

func parseMetrics(body []byte) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 { // exemplar
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// procCPUMS is the process's user+system CPU time, every thread included,
// from /proc/<pid>/stat (clock ticks of 10 ms).
func procCPUMS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	const msPerTick = 10 // USER_HZ is 100 on Linux
	return (ut + st) * msPerTick, nil
}

// peakRSSMB is the process's VmHWM (peak resident set) in MiB.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// cpuTimes is the machine-wide "cpu" line of /proc/stat: total jiffies and
// the steal share of them.
type cpuTimes struct{ total, steal float64 }

func readCPUTimes() (cpuTimes, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("malformed /proc/stat")
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already inside user, so it is not added again.
	for i := 1; i <= 8 && i < len(f); i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return cpuTimes{}, err
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

func stealRatio(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}
