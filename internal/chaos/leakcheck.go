package chaos

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"time"
)

// Goroutine-leak checking (goleak-style): the chaos invariants require that
// no fault schedule — panics in cache leaders, stuck evaluations whose
// callers gave up, mid-drain cancellations — leaves an evaluator goroutine
// behind. The checker snapshots the full goroutine dump, filters the
// goroutines the runtime and the testing harness legitimately keep, and
// retries over a grace window so goroutines that are *finishing* (a detached
// cache leader bounded by the server's request timeout, an idle HTTP
// keep-alive connection unwinding) are not reported as leaks.

// benignStackFragments mark goroutines that are part of the harness, the
// runtime, or shutdown machinery — never application leaks.
var benignStackFragments = []string{
	"testing.Main(",
	"testing.tRunner(",
	"testing.(*M).Run",
	"testing.runFuzzing(",
	"testing.runTests(",
	"runtime.goexit0",
	"runtime.gc",
	"runtime.MHeap_Scavenger",
	"runtime/trace.Start",
	"runtime.ReadTrace",
	"os/signal.signal_recv",
	"os/signal.loop",
	"created by runtime.gc",
	"created by runtime/trace",
	"created by testing.",
	"created by os/signal.",
	// The race detector and coverage machinery park goroutines of their own.
	"runtime.ensureSigM",
	"go.itab",
	// The checker's own goroutine (main, calling through TestMain).
	".leakedGoroutines(",
	"main.main()",
}

// leakedGoroutines returns the stacks of goroutines that look like
// application leaks right now.
func leakedGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var leaks []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if g == "" {
			continue
		}
		benign := false
		for _, frag := range benignStackFragments {
			if strings.Contains(g, frag) {
				benign = true
				break
			}
		}
		if !benign {
			leaks = append(leaks, g)
		}
	}
	return leaks
}

// CheckLeaks polls for leaked goroutines until none remain or the grace
// window expires, then reports the survivors. Goroutines legitimately
// winding down (drain-bounded evaluators, idle keep-alive connections) get
// the grace window to exit.
func CheckLeaks(grace time.Duration) error {
	deadline := time.Now().Add(grace)
	var leaks []string
	for {
		leaks = leakedGoroutines()
		if len(leaks) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("chaos: %d leaked goroutine(s) after %v grace:\n\n%s",
		len(leaks), grace, strings.Join(leaks, "\n\n"))
}

// testingM matches *testing.M without importing testing into non-test code.
type testingM interface{ Run() int }

// LeakCheckMain wraps a package's TestMain: it runs the tests, then — only
// when they passed — closes idle HTTP connections (the default transport's
// keep-alives otherwise linger as false positives) and fails the run if any
// goroutine survives the grace window. Usage:
//
//	func TestMain(m *testing.M) { os.Exit(chaos.LeakCheckMain(m, 10*time.Second)) }
func LeakCheckMain(m testingM, grace time.Duration) int {
	code := m.Run()
	if code != 0 {
		return code
	}
	http.DefaultClient.CloseIdleConnections()
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	if err := CheckLeaks(grace); err != nil {
		fmt.Println(err)
		return 1
	}
	return 0
}
