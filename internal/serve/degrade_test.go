package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/obs"

	transfusion "github.com/fusedmindlab/transfusion"
)

const searchPlanBody = `{"arch":"edge","model":"bert","seq_len":1024,"system":"transfusion","search_budget":8}`

// The ladder unit: queue pressure maps onto fidelity tiers, and degraded specs
// always resolve to their own cache keys.
func TestApplyLadderTiers(t *testing.T) {
	s, _, _ := newTestServer(t, Config{MaxQueue: 8})
	base := transfusion.RunSpec{Arch: "edge", Model: "bert", SeqLen: 1024, System: "transfusion", SearchBudget: 64}

	s.adm.queued.Store(0)
	if _, mode := s.applyLadder(base); mode != "" {
		t.Fatalf("unloaded ladder degraded with mode %q", mode)
	}

	// Half-full queue: tier 1 caps the search budget...
	s.adm.queued.Store(4)
	spec, mode := s.applyLadder(base)
	if mode != degradeBudget || spec.SearchBudget != reducedBudget {
		t.Fatalf("tier 1 = (budget %d, mode %q), want (%d, %q)", spec.SearchBudget, mode, reducedBudget, degradeBudget)
	}
	if spec.CanonicalKey() == base.CanonicalKey() {
		t.Fatal("budget-degraded spec shares the full-fidelity cache key")
	}
	// ...but never inflates a request that already asked for less.
	small := base
	small.SearchBudget = 4
	if got, mode := s.applyLadder(small); mode != "" || got.SearchBudget != 4 {
		t.Fatalf("tier 1 rewrote a below-cap budget: (%d, %q)", got.SearchBudget, mode)
	}

	// Full queue: tier 2 drops the search entirely.
	s.adm.queued.Store(8)
	spec, mode = s.applyLadder(base)
	if mode != degradeHeuristic || !spec.HeuristicOnly {
		t.Fatalf("tier 2 = (heuristic %t, mode %q), want (true, %q)", spec.HeuristicOnly, mode, degradeHeuristic)
	}
	if spec.CanonicalKey() == base.CanonicalKey() {
		t.Fatal("heuristic-degraded spec shares the full-fidelity cache key")
	}

	// A caller that asked for heuristic-only is already at the bottom; the
	// ladder has nothing to take away and must not claim the degradation.
	own := base
	own.HeuristicOnly = true
	if _, mode := s.applyLadder(own); mode != "" {
		t.Fatalf("caller-chosen heuristic spec reported ladder mode %q", mode)
	}
}

// End-to-end tier 2: a saturated queue turns a search request into a
// heuristic-only answer — 200, Served-Degraded: heuristic, counter bumped —
// and once pressure clears the same request gets its full-fidelity search.
func TestPlanDegradesHeuristicUnderPressure(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{MaxQueue: 8})

	s.adm.queued.Store(8)
	resp, data := post(t, ts.URL+"/v1/plan", searchPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Served-Degraded"); got != degradeHeuristic {
		t.Fatalf("Served-Degraded = %q, want %q", got, degradeHeuristic)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Result.Degraded || pr.Result.DegradedReason == "" {
		t.Fatalf("degraded response body not marked: %+v", pr.Result)
	}
	if pr.Result.TileSearchEvals != 0 {
		t.Fatalf("heuristic-only answer ran %d search evals", pr.Result.TileSearchEvals)
	}
	if got := reg.Counter("serve.degraded." + degradeHeuristic).Value(); got != 1 {
		t.Fatalf("serve.degraded.heuristic = %d, want 1", got)
	}

	// Pressure gone: the same spec now gets the real search, not the cached
	// degraded entry (their canonical keys differ).
	s.adm.queued.Store(0)
	resp, data = post(t, ts.URL+"/v1/plan", searchPlanBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered request: status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Served-Degraded"); got != "" {
		t.Fatalf("unloaded server served degraded: %q", got)
	}
	var full PlanResponse
	if err := json.Unmarshal(data, &full); err != nil {
		t.Fatal(err)
	}
	if full.Cached {
		t.Fatal("full-fidelity request was served the degraded cache entry")
	}
	if full.Result.Degraded || full.Result.TileSearchEvals == 0 {
		t.Fatalf("recovered answer still degraded: %+v", full.Result)
	}
}

// End-to-end tier 1: a half-full queue trims the search budget but still
// searches; the response is marked with the budget mode.
func TestPlanDegradesBudgetUnderPressure(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{MaxQueue: 8})
	s.adm.queued.Store(4)
	body := `{"arch":"edge","model":"bert","seq_len":1024,"system":"transfusion","search_budget":64}`
	resp, data := post(t, ts.URL+"/v1/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("Served-Degraded"); got != degradeBudget {
		t.Fatalf("Served-Degraded = %q, want %q", got, degradeBudget)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Result.Degraded {
		t.Fatalf("budget-degraded response body not marked: %+v", pr.Result)
	}
	if pr.Result.TileSearchEvals == 0 {
		t.Fatal("budget tier skipped the search entirely")
	}
	if got := reg.Counter("serve.degraded." + degradeBudget).Value(); got != 1 {
		t.Fatalf("serve.degraded.budget = %d, want 1", got)
	}
}

// A singleflight leader whose client gives up returns at once, while its
// stalled evaluation runs on under the server's deadline and lands in the
// cache: the retry answers from memory, with full fidelity, and the plan is
// evaluated exactly once.
func TestAbandonedLeaderLandsInCache(t *testing.T) {
	const stall = time.Second
	s, ts, reg, inj := chaosTestServer(t, Config{RequestTimeout: 10 * time.Second},
		"serve.cache.leader=latency:1s@limit=1", 11)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(fastPlanBody)).WithContext(ctx)
	rec := httptest.NewRecorder()
	start := time.Now()
	s.Handler().ServeHTTP(rec, req)
	if elapsed := time.Since(start); elapsed >= stall/2 {
		t.Fatalf("handler took %v after its client gave up — it waited on the stalled leader", elapsed)
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("abandoned request status %d, want %d", rec.Code, http.StatusGatewayTimeout)
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.cache.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned leader's evaluation never reached the cache")
		}
		time.Sleep(10 * time.Millisecond)
	}
	resp, data := post(t, ts.URL+"/v1/plan", fastPlanBody)
	pr, source := planSource(t, resp, data)
	if source != sourceMemory || !pr.Cached {
		t.Fatalf("retry answered from %q (cached %t), want %q", source, pr.Cached, sourceMemory)
	}
	if got := resp.Header.Get("Served-Degraded"); got != "" || pr.Result.Degraded {
		t.Fatalf("retry served degraded (header %q): %+v", got, pr.Result)
	}
	if got := reg.Counter("serve.cache_misses").Value(); got != 1 {
		t.Fatalf("serve.cache_misses = %d, want 1 evaluation", got)
	}
	if inj.Fires(chaos.SiteServeCacheLeader) != 1 {
		t.Fatalf("injected stall fired %d times, want 1", inj.Fires(chaos.SiteServeCacheLeader))
	}
}

// The server-side deadline bounds the queue wait: with the pool wedged, a
// request times out with a mapped 504 instead of hanging.
func TestRequestDeadlineBoundsQueueWait(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{
		MaxConcurrent:  1,
		MaxQueue:       8,
		RequestTimeout: 100 * time.Millisecond,
	})
	s.adm.sem <- struct{}{} // wedge the only slot
	defer func() { <-s.adm.sem }()

	start := time.Now()
	resp, data := post(t, ts.URL+"/v1/plan", fastPlanBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline did not bound the queue wait", elapsed)
	}
}

// A request whose context is already dead never claims an admission slot, even
// when one is free — the slot must stay available for live callers.
func TestCanceledRequestNeverAcquiresSlot(t *testing.T) {
	a := newAdmission(1, 4, obs.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.acquire(ctx); !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("acquire on dead context = %v, want ErrCanceled", err)
	}
	if len(a.sem) != 0 {
		t.Fatalf("dead request left %d slot(s) claimed", len(a.sem))
	}

	// Regression for the queued path: injected latency holds the caller at
	// the admission gate, cancellation lands mid-wait, and no slot may leak.
	inj, err := chaos.Parse("serve.admission=latency:30s@every=1", 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel = context.WithCancel(chaos.With(context.Background(), inj))
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	if err := a.acquire(ctx); !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("acquire canceled mid-injection = %v, want ErrCanceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("canceled acquire took %v — injected latency ignored the cancellation", elapsed)
	}
	if len(a.sem) != 0 {
		t.Fatalf("canceled request left %d slot(s) claimed", len(a.sem))
	}
}

// Retry-After is computed, not constant: queue-drain time at the EWMA
// service rate, and the EWMA is exported as serve.plan_latency_ewma.
func TestRetryAfterComputedFromLoad(t *testing.T) {
	s, ts, reg := newTestServer(t, Config{MaxConcurrent: 1, MaxQueue: -1})
	s.observeLatency(2500 * time.Millisecond)
	if got := reg.Gauge("serve.plan_latency_ewma").Value(); got != 2500 {
		t.Fatalf("serve.plan_latency_ewma = %v, want 2500", got)
	}

	s.adm.sem <- struct{}{} // busy pool + queueing disabled → immediate shed
	defer func() { <-s.adm.sem }()
	resp, data := post(t, ts.URL+"/v1/plan", fastPlanBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	// One caller draining through one slot at 2.5s each: ceil(2.5) = 3.
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want %q", got, "3")
	}
}
