package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/fusedmindlab/transfusion/client"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// setupRepeats is how many times a workload launches its daemons; setup_s is
// the median, and the last launch serves the timed phase.
const setupRepeats = 15

// clockTick is the /proc/<pid>/stat time unit (USER_HZ, 100 on Linux).
const clockTick = 10 * time.Millisecond

// replica is one transfusiond the workload runs: its fixed address and
// flags, and the process currently serving it.
type replica struct {
	url  string
	args []string
	cmd  *exec.Cmd
	log  *os.File
}

// bench is the state one run shares across its phases.
type bench struct {
	cfg      config
	dir      string
	replicas []*replica
	http     *http.Client
}

// newReplica reserves a loopback port and records the daemon's flags; the
// workload's own flags (store, peers, cache size) follow -addr.
func (b *bench) newReplica(extra ...string) (*replica, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	r := &replica{url: "http://" + addr, args: append([]string{"-addr", addr}, extra...)}
	b.replicas = append(b.replicas, r)
	return r, nil
}

func (b *bench) httpClient() *http.Client {
	if b.http == nil {
		b.http = &http.Client{
			Timeout:   90 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 16, DisableCompression: true},
		}
	}
	return b.http
}

// planClient builds a client.Client for one replica with retries, hedging
// and the breaker off: every failure must count against failed_ratio.
func (b *bench) planClient(r *replica) *client.Client {
	return client.New(r.url, client.Options{
		HTTPClient:       b.httpClient(),
		MaxRetries:       -1,
		BreakerThreshold: -1,
		Seed:             1,
	})
}

// launch starts every replica, waits until each answers /readyz with 200,
// and returns the slowest replica's launch-to-ready time in seconds.
func (b *bench) launch() (float64, error) {
	type ready struct {
		d   time.Duration
		err error
	}
	done := make(chan ready, len(b.replicas))
	for i, r := range b.replicas {
		logf, err := os.OpenFile(filepath.Join(b.dir, fmt.Sprintf("daemon-%d.log", i)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return 0, err
		}
		r.log = logf
		r.cmd = exec.Command(b.cfg.daemon, r.args...)
		r.cmd.Stdout = logf
		r.cmd.Stderr = logf
		// Should the benchmark die without stopping its daemons, the kernel
		// kills them.
		r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		start := time.Now()
		if err := r.cmd.Start(); err != nil {
			r.cmd = nil
			logf.Close()
			return 0, fmt.Errorf("starting transfusiond: %w", err)
		}
		go func(r *replica) {
			err := b.waitReady(r, 60*time.Second)
			done <- ready{time.Since(start), err}
		}(r)
	}
	var slowest time.Duration
	for range b.replicas {
		rd := <-done
		if rd.err != nil {
			return 0, rd.err
		}
		slowest = max(slowest, rd.d)
	}
	return slowest.Seconds(), nil
}

func (b *bench) waitReady(r *replica, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := hc.Get(r.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("transfusiond at %s not ready within %v (log in %s)", r.url, timeout, b.dir)
}

// setup launches the replicas setupRepeats times, stopping all but the last
// launch, and returns the median launch-to-ready time.
func (b *bench) setup() (float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		s, err := b.launch()
		if err != nil {
			return 0, err
		}
		times = append(times, s)
		if i < setupRepeats-1 {
			if err := b.stopDaemons(); err != nil {
				return 0, err
			}
		}
	}
	return median(times), nil
}

// stopDaemons sends SIGTERM to every running replica and waits for each to
// exit, killing any that has not drained within ten seconds.
func (b *bench) stopDaemons() error {
	var firstErr error
	for _, r := range b.replicas {
		if r.cmd == nil {
			continue
		}
		r.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck
		exited := make(chan error, 1)
		go func(c *exec.Cmd) { exited <- c.Wait() }(r.cmd)
		select {
		case err := <-exited:
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("transfusiond at %s: %w", r.url, err)
			}
		case <-time.After(10 * time.Second):
			r.cmd.Process.Kill() //nolint:errcheck
			<-exited
			if firstErr == nil {
				firstErr = fmt.Errorf("transfusiond at %s did not drain within 10s", r.url)
			}
		}
		r.cmd = nil
		r.log.Close()
	}
	return firstErr
}

// counters reads a replica's /metrics?format=json counters.
func (b *bench) counters(r *replica) (map[string]int64, error) {
	resp, err := b.httpClient().Get(r.url + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decoding %s/metrics: %w", r.url, err)
	}
	return doc.Counters, nil
}

// allCounters sums every replica's counters.
func (b *bench) allCounters() (map[string]int64, error) {
	sum := map[string]int64{}
	for _, r := range b.replicas {
		c, err := b.counters(r)
		if err != nil {
			return nil, err
		}
		for k, v := range c {
			sum[k] += v
		}
	}
	return sum, nil
}

// cpuTime is the user+system CPU time every running replica has used.
func (b *bench) cpuTime() (time.Duration, error) {
	var total time.Duration
	for _, r := range b.replicas {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", r.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// Fields after the parenthesised command name: state is field 3,
		// utime 14 and stime 15.
		rest := string(data[strings.LastIndexByte(string(data), ')')+2:])
		f := strings.Fields(rest)
		if len(f) < 13 {
			return 0, fmt.Errorf("short /proc stat for pid %d", r.cmd.Process.Pid)
		}
		for _, s := range f[11:13] {
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return 0, err
			}
			total += time.Duration(n) * clockTick
		}
	}
	return total, nil
}

// peakRSSMB is the largest VmHWM (peak resident set) among the replicas.
func (b *bench) peakRSSMB() (float64, error) {
	var peak float64
	for _, r := range b.replicas {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", r.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err != nil {
					return 0, err
				}
				peak = max(peak, kb/1024)
			}
		}
	}
	return peak, nil
}

// warmFrom returns the stored key a warm-search answer was seeded from, read
// from the serving replica's request trace (the plan.resolve span's
// warm_from attribute); "" when the trace carries none.
func (b *bench) warmFrom(ctx context.Context, r *replica, traceID string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.url+"/debug/requests?id="+traceID, nil)
	if err != nil {
		return "", err
	}
	resp, err := b.httpClient().Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("trace %s: status %d", traceID, resp.StatusCode)
	}
	var doc obs.TraceExport
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return "", err
	}
	queue := doc.Spans
	for len(queue) > 0 {
		sp := queue[0]
		queue = append(queue[1:], sp.Children...)
		for _, a := range sp.Attrs {
			if a.K == "warm_from" {
				return a.V, nil
			}
		}
	}
	return "", nil
}
