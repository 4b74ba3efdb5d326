package serve

import (
	"context"
	"strings"
	"testing"
)

const (
	warmSeedBody      = `{"arch":"edge","model":"bert","seq_len":1024,"system":"transfusion","search_budget":8}`
	warmNeighbourBody = `{"arch":"edge","model":"bert","seq_len":2048,"system":"transfusion","search_budget":8}`
	warmFarBody       = `{"arch":"edge","model":"bert","seq_len":4096,"system":"transfusion","search_budget":8}`
)

// A near-miss request — same plan family, neighbouring seq_len — must be
// answered by the warm-search tier: the stored neighbour seeds the search and
// the response is labelled warm-search, never a silent cold search.
func TestNearMissServedByWarmSearch(t *testing.T) {
	dir := t.TempDir()
	sA, tsA, _ := storeTestServer(t, Config{}, dir, true, "")
	resp, data := post(t, tsA.URL+"/v1/plan", warmSeedBody)
	planSource(t, resp, data)
	sA.fills.Wait()

	sB, tsB, regB := storeTestServer(t, Config{}, dir, true, "")
	resp, data = post(t, tsB.URL+"/v1/plan", warmNeighbourBody)
	pr, source := planSource(t, resp, data)
	if source != sourceWarm {
		t.Fatalf("near-miss served from %q, want %q", source, sourceWarm)
	}
	if pr.Cached {
		t.Fatal("warm-search answer reported as cached")
	}
	if pr.Result.Degraded {
		t.Fatalf("warm-search answer degraded: %+v", pr.Result)
	}
	if got := regB.Counter("serve.warm_hits").Value(); got != 1 {
		t.Fatalf("serve.warm_hits = %d after one warm-search answer, want 1", got)
	}
	// The warm answer back-fills the store like any search result.
	sB.fills.Wait()
	if n := sB.store.Len(); n != 2 {
		t.Fatalf("store holds %d records after the warm answer, want 2", n)
	}

	// Repeating the request must now hit the memory tier, not re-search.
	resp, data = post(t, tsB.URL+"/v1/plan", warmNeighbourBody)
	if _, source = planSource(t, resp, data); source != sourceMemory {
		t.Fatalf("repeat served from %q, want %q", source, sourceMemory)
	}
	if got := regB.Counter("serve.warm_hits").Value(); got != 1 {
		t.Fatalf("serve.warm_hits moved to %d on a cache hit", got)
	}
}

// An exact stored hit must be served from the disk tier; the warm-search tier
// only fires on misses, so its counter stays at zero.
func TestExactHitPrefersDiskOverWarm(t *testing.T) {
	dir := t.TempDir()
	sA, tsA, _ := storeTestServer(t, Config{}, dir, true, "")
	resp, data := post(t, tsA.URL+"/v1/plan", warmSeedBody)
	planSource(t, resp, data)
	sA.fills.Wait()

	_, tsB, regB := storeTestServer(t, Config{}, dir, true, "")
	resp, data = post(t, tsB.URL+"/v1/plan", warmSeedBody)
	if _, source := planSource(t, resp, data); source != sourceDisk {
		t.Fatalf("exact hit served from %q, want %q", source, sourceDisk)
	}
	if got := regB.Counter("serve.warm_hits").Value(); got != 0 {
		t.Fatalf("serve.warm_hits = %d on an exact hit, want 0", got)
	}
}

// Degraded answers are never persisted, so they can never become warm hints:
// after a degraded evaluation the next near-miss request cold-searches.
func TestDegradedNeverSeedsWarmSearch(t *testing.T) {
	dir := t.TempDir()
	s, ts, reg := storeTestServer(t, Config{MaxQueue: 8}, dir, true, "")

	s.adm.queued.Store(8) // tier 2: heuristic only
	resp, data := post(t, ts.URL+"/v1/plan", warmSeedBody)
	pr, _ := planSource(t, resp, data)
	if !pr.Result.Degraded {
		t.Fatalf("saturated server served undegraded: %+v", pr.Result)
	}
	s.adm.queued.Store(0)
	s.fills.Wait()
	if n := s.store.Len(); n != 0 {
		t.Fatalf("store holds %d records after a degraded answer, want 0", n)
	}

	resp, data = post(t, ts.URL+"/v1/plan", warmNeighbourBody)
	if _, source := planSource(t, resp, data); source != sourceSearch {
		t.Fatalf("near-miss after degraded answer served from %q, want %q", source, sourceSearch)
	}
	if got := reg.Counter("serve.warm_hits").Value(); got != 0 {
		t.Fatalf("serve.warm_hits = %d with an empty store, want 0", got)
	}
}

// WarmGrid fills the power-of-two gaps between stored seq_lens off the
// serving path; the filled plans are immediately servable from memory.
func TestWarmGridFillsSeqLenGaps(t *testing.T) {
	dir := t.TempDir()
	s, ts, reg := storeTestServer(t, Config{}, dir, true, "")
	for _, body := range []string{warmSeedBody, warmFarBody} {
		resp, data := post(t, ts.URL+"/v1/plan", body)
		planSource(t, resp, data)
	}
	s.fills.Wait()
	if n := s.store.Len(); n != 2 {
		t.Fatalf("store holds %d records before the grid walk, want 2", n)
	}

	n := s.WarmGrid(context.Background(), 0)
	if n != 1 {
		t.Fatalf("WarmGrid filled %d plans between 1024 and 4096, want 1 (seq 2048)", n)
	}
	if got := reg.Counter("serve.warm_grid_plans").Value(); got != 1 {
		t.Fatalf("serve.warm_grid_plans = %d, want 1", got)
	}
	if got := s.store.Len(); got != 3 {
		t.Fatalf("store holds %d records after the grid walk, want 3", got)
	}
	// A second walk finds no gaps left.
	if again := s.WarmGrid(context.Background(), 0); again != 0 {
		t.Fatalf("repeat WarmGrid filled %d plans, want 0", again)
	}

	resp, data := post(t, ts.URL+"/v1/plan", warmNeighbourBody)
	if _, source := planSource(t, resp, data); source != sourceMemory {
		t.Fatalf("grid-filled spec served from %q, want %q", source, sourceMemory)
	}
}

// The warm-search source label reaches clients through both the JSON body and
// the X-Plan-Source header (planSource asserts their agreement); sanity-check
// the literal since CI greps for it.
func TestWarmSourceLabel(t *testing.T) {
	if sourceWarm != "warm-search" || !strings.HasPrefix(sourceWarm, "warm") {
		t.Fatalf("sourceWarm = %q", sourceWarm)
	}
}
