package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemonFlags is the one configuration every workload runs: the paper's
// hybrid node, one simulated GPU co-executing with PixelBox-CPU. Everything
// else stays at its default; -addr and -data-dir are added per start.
var daemonFlags = []string{"-devices", "1", "-hybrid-cpu"}

// daemon is a running sccgd child process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// exited closes once the process has been reaped.
	exited chan struct{}
	// logTail keeps the last lines of the daemon's log for error reports.
	mu      sync.Mutex
	logTail []string
}

// startDaemon starts sccgd on an ephemeral loopback port over dataDir and
// returns once it has logged its listen address.
func startDaemon(bin, dataDir string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-data-dir", dataDir}, daemonFlags...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start sccgd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addrCh := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent && strings.Contains(line, "msg=serving") {
				if addr := logField(line, "addr"); addr != "" {
					addrCh <- addr
					sent = true
				}
			}
			d.mu.Lock()
			d.logTail = append(d.logTail, line)
			if len(d.logTail) > 20 {
				d.logTail = d.logTail[1:]
			}
			d.mu.Unlock()
		}
		// Drain whatever remains so the daemon never blocks on a full pipe.
		_, _ = io.Copy(io.Discard, stderr)
	}()
	go func() {
		<-scanned // Wait must not close the pipe before the reader is done
		_ = cmd.Wait()
		close(d.exited)
	}()
	select {
	case addr := <-addrCh:
		d.base = "http://" + addr
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("sccgd exited before serving: %s", d.tail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("sccgd did not report its listen address within 30s")
	}
}

// logField extracts key=value from a slog text line.
func logField(line, key string) string {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.logTail, "\n")
}

// stop asks the daemon to shut down, kills it if it has not exited within
// 20s, and returns once it has been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// peakRSSMB reads the daemon's VmHWM, its peak resident set, in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// client drives the daemon over HTTP. With a recorder set it wraps every
// call in a server.<route> span; httpErrors counts calls that failed in
// transport or answered an unexpected status.
type client struct {
	base       string
	hc         *http.Client
	httpErrors atomic.Int64
}

func newClient(base string, conns int) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: 2 * time.Minute,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and decodes a JSON answer into out (when non-nil).
// A status not in want is an error. When rec is non-nil the call is
// recorded as span name under op.
func (c *client) call(ctx context.Context, rec *recorder, name string, op int,
	method, path string, body []byte, out any, want ...int) error {
	sp := rec.begin(name, op, -1)
	err := c.roundTrip(ctx, method, path, body, out, want...)
	rec.end(sp)
	if err != nil {
		c.httpErrors.Add(1)
	}
	return err
}

func (c *client) roundTrip(ctx context.Context, method, path string, body []byte, out any, want ...int) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if !slices.Contains(want, resp.StatusCode) {
		return fmt.Errorf("%s %s: status %d, want %v: %s", method, path, resp.StatusCode, want,
			strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return nil
}

// waitHealthy polls /healthz every 2ms until it answers 200.
func (c *client) waitHealthy(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	for {
		err := c.roundTrip(ctx, http.MethodGet, "/healthz", nil, nil, http.StatusOK)
		if err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("healthz: %w", err)
		case <-time.After(pollInterval):
		}
	}
}
