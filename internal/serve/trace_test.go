package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/obs"
)

// fetchTrace pulls one exported trace by id from /debug/requests.
func fetchTrace(t *testing.T, baseURL, traceID string) *obs.TraceExport {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/requests?id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests?id=%s: status %d", traceID, resp.StatusCode)
	}
	var exp obs.TraceExport
	if err := json.NewDecoder(resp.Body).Decode(&exp); err != nil {
		t.Fatalf("decoding trace export: %v", err)
	}
	return &exp
}

// findSpan walks the span tree for the first span with the given name.
func findSpan(spans []*obs.SpanExport, name string) *obs.SpanExport {
	for _, s := range spans {
		if s.Name == name {
			return s
		}
		if found := findSpan(s.Children, name); found != nil {
			return found
		}
	}
	return nil
}

func spanAttr(s *obs.SpanExport, key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.K == key {
			return a.V, true
		}
	}
	return "", false
}

// A fixed-seed chaos schedule injecting latency at store.read must show up in
// the request's trace as a "store.read" span carrying the injected delay —
// the trace attributes the slowness to the disk tier, not to the search or
// the cache. Runs under -race in CI's chaos-smoke job.
func TestTraceChaosDiskLatencyAttribution(t *testing.T) {
	dir := t.TempDir()

	// Warm the disk tier: one searched plan, fill awaited.
	sA, tsA, _ := storeTestServer(t, Config{}, dir, true, "")
	resp, data := post(t, tsA.URL+"/v1/plan", searchPlanBody)
	if _, source := planSource(t, resp, data); source != sourceSearch {
		t.Fatalf("warmup served from %q, want %q", source, sourceSearch)
	}
	sA.fills.Wait()

	// A cold restart over the same directory, disk reads slowed by 150ms,
	// tracing on. The answer must come from disk and the trace must pin the
	// delay on the store.read span.
	cfg := Config{
		Tracer: obs.NewTracer(obs.TracerConfig{Seed: 1}),
	}
	_, tsB, _ := storeTestServer(t, cfg, dir, true, "store.read=latency:150ms@limit=1")
	resp, data = post(t, tsB.URL+"/v1/plan", searchPlanBody)
	if _, source := planSource(t, resp, data); source != sourceDisk {
		t.Fatalf("served from %q, want %q", source, sourceDisk)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("no X-Trace-Id on traced response")
	}

	exp := fetchTrace(t, tsB.URL, traceID)
	read := findSpan(exp.Spans, "store.read")
	if read == nil {
		t.Fatalf("no store.read span in trace %s", traceID)
	}
	if read.DurUS < 100_000 {
		t.Fatalf("store.read span is %.0fus, want >= 100ms of injected latency", read.DurUS)
	}
	if hit, ok := spanAttr(read, "hit"); !ok || hit != "true" {
		t.Fatalf("store.read hit attr = %q, want true", hit)
	}
	if read.Error != "" {
		t.Fatalf("store.read span unexpectedly errored: %s", read.Error)
	}
	// The delay belongs to the disk span, not the memory lookup.
	if mem := findSpan(exp.Spans, "cache.memory"); mem == nil {
		t.Fatal("no cache.memory span in trace")
	} else if mem.DurUS > 50_000 {
		t.Fatalf("cache.memory span absorbed the delay (%.0fus)", mem.DurUS)
	}
}

// An injected store.read error must surface on the store.read span (error
// attribution) while the request falls through to a full search and still
// answers 200.
func TestTraceChaosDiskErrorAttribution(t *testing.T) {
	dir := t.TempDir()

	sA, tsA, _ := storeTestServer(t, Config{}, dir, true, "")
	resp, data := post(t, tsA.URL+"/v1/plan", searchPlanBody)
	planSource(t, resp, data)
	sA.fills.Wait()

	cfg := Config{
		Tracer: obs.NewTracer(obs.TracerConfig{Seed: 2}),
	}
	_, tsB, _ := storeTestServer(t, cfg, dir, true, "store.read=error@limit=1")
	resp, data = post(t, tsB.URL+"/v1/plan", searchPlanBody)
	if _, source := planSource(t, resp, data); source != sourceSearch {
		t.Fatalf("served from %q, want %q (disk read was fault-injected)", source, sourceSearch)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	exp := fetchTrace(t, tsB.URL, traceID)

	read := findSpan(exp.Spans, "store.read")
	if read == nil {
		t.Fatalf("no store.read span in trace %s", traceID)
	}
	if read.Error == "" {
		t.Fatal("store.read span carries no error despite injected fault")
	}
	if !strings.Contains(read.Error, "chaos") {
		t.Fatalf("store.read span error %q does not name the injected fault", read.Error)
	}
	if hit, _ := spanAttr(read, "hit"); hit == "true" {
		t.Fatal("store.read reported a hit through an injected read error")
	}
	// The request recovered by searching: the search spans must be siblings
	// in the same trace.
	if findSpan(exp.Spans, "tileseek.search") == nil {
		t.Fatal("no tileseek.search span — fall-through to search is missing from the trace")
	}
	if findSpan(exp.Spans, "plan.lead") == nil {
		t.Fatal("no plan.lead span for the singleflight leader")
	}
}

// With no tracer configured, the admission fast path — taken by every plan
// request — must not allocate for tracing.
func TestUntracedAdmissionZeroAllocChaosBaseline(t *testing.T) {
	a := newAdmission(1, 4, nil)
	ctx := context.Background()
	n := testing.AllocsPerRun(200, func() {
		if err := a.acquire(ctx); err != nil {
			t.Fatal(err)
		}
		a.release()
	})
	if n != 0 {
		t.Fatalf("untraced acquire/release allocates %g per op, want 0", n)
	}
}
