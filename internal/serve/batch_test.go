package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.json from the current implementation")

// One batch through a 2-replica cluster mixes every source in a single
// response: a fresh self-owned spec searches, a peer-owned spec fetches, a
// duplicate of the first answers from memory (entries resolve in order), and
// an invalid entry fails alone without voiding its siblings.
func TestBatchMixedSourcesAcrossCluster(t *testing.T) {
	h := newClusterHarness(t, clusterOpts{n: 2})
	mine := h.specOwnedBy(t, 0)
	theirs := h.specOwnedBy(t, 1)

	body := fmt.Sprintf(`{"requests":[%s,%s,%s,{"arch":"edge","model":"bert","seq_len":-1,"system":"unfused"}]}`,
		planBody(mine), planBody(theirs), planBody(mine))
	resp, data := post(t, h.urls[0]+"/v1/plan/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var br BatchPlanResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Entries) != 4 || br.Failed != 1 {
		t.Fatalf("entries=%d failed=%d, want 4 and 1", len(br.Entries), br.Failed)
	}
	wantSources := []string{sourceSearch, sourcePeer, sourceMemory, ""}
	wantStatus := []int{200, 200, 200, 400}
	for i, e := range br.Entries {
		if e.Status != wantStatus[i] {
			t.Fatalf("entry %d status %d, want %d (%s)", i, e.Status, wantStatus[i], e.Error)
		}
		if e.Source != wantSources[i] {
			t.Fatalf("entry %d source %q, want %q", i, e.Source, wantSources[i])
		}
		if (e.Status == 200) == (e.Result == nil) {
			t.Fatalf("entry %d: status %d with result=%v", i, e.Status, e.Result)
		}
		if e.Status != 200 && e.Error == "" {
			t.Fatalf("entry %d failed without an error message", i)
		}
	}
	if !br.Entries[2].Cached {
		t.Fatal("duplicate entry not reported cached")
	}
	// The failed entry must not have poisoned the peer accounting.
	if f, hits := h.regs[0].Counter("serve.peer.forwards").Value(), h.regs[0].Counter("serve.peer.hits").Value(); f != 1 || hits != 1 {
		t.Fatalf("forwards=%d hits=%d, want 1 and 1", f, hits)
	}
}

// A degraded evaluation inside a batch keeps its entry (Result.Degraded set,
// counted in DegradedEntries) and stamps the response exactly once: one
// Served-Degraded header, one serve.degraded.* counter increment — the same
// per-response invariant /v1/compare holds.
func TestBatchDegradedEntrySemantics(t *testing.T) {
	// Every search rollout faults, so search-backed entries degrade to the
	// heuristic tile internally; the cheap unfused entry is untouched.
	_, ts, reg, _ := chaosTestServer(t, Config{},
		"tileseek.rollout=error@every=1", 7)

	body := fmt.Sprintf(`{"requests":[%s,%s]}`, fastPlanBody, searchPlanBody)
	resp, data := post(t, ts.URL+"/v1/plan/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var br BatchPlanResponse
	if err := json.Unmarshal(data, &br); err != nil {
		t.Fatal(err)
	}
	if br.Failed != 0 || br.DegradedEntries != 1 {
		t.Fatalf("failed=%d degraded_entries=%d, want 0 and 1", br.Failed, br.DegradedEntries)
	}
	if br.Entries[0].Result.Degraded {
		t.Fatal("unfused entry reported degraded")
	}
	if e := br.Entries[1]; !e.Result.Degraded || e.Result.DegradedReason == "" {
		t.Fatalf("search entry = %+v, want a degraded result with a reason", e.Result)
	}
	if h := resp.Header.Get("Served-Degraded"); h != degradeSearch {
		t.Fatalf("Served-Degraded = %q, want %q", h, degradeSearch)
	}
	if n := degradedCounterSum(reg); n != 1 {
		t.Fatalf("serve.degraded.* sum = %d, want exactly 1 for one batch response", n)
	}
}

// Whole-batch errors: anything that prevents per-entry resolution answers a
// plain 400/405 with no entries.
func TestBatchWholeRequestErrors(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		status     int
	}{
		{"empty-list", `{"requests":[]}`, http.StatusBadRequest},
		{"missing-field", `{}`, http.StatusBadRequest},
		{"bad-json", `{"requests":[`, http.StatusBadRequest},
		{"unknown-field", `{"requests":[],"surprise":1}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, data := post(t, ts.URL+"/v1/plan/batch", tc.body)
		if resp.StatusCode != tc.status {
			t.Fatalf("%s: status %d, want %d: %s", tc.name, resp.StatusCode, tc.status, data)
		}
	}
	// Oversized batch.
	var big bytes.Buffer
	big.WriteString(`{"requests":[`)
	for i := 0; i <= maxBatchEntries; i++ {
		if i > 0 {
			big.WriteByte(',')
		}
		big.WriteString(fastPlanBody)
	}
	big.WriteString(`]}`)
	if resp, _ := post(t, ts.URL+"/v1/plan/batch", big.String()); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", resp.StatusCode)
	}
	// Method.
	if resp, _ := get(t, ts.URL+"/v1/plan/batch"); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET batch: status %d, want 405", resp.StatusCode)
	}
}

var elapsedRe = regexp.MustCompile(`"elapsed_ms": [0-9.e+-]+`)

// The batch response shape, pinned against a golden file: a disk-tier hit, a
// memory promotion, a fresh search, and a per-entry validation failure in one
// response. Every field but the wall-clock elapsed_ms is deterministic (the
// analytical model is exact and the search is seeded), so the golden is
// byte-stable; regenerate with -update after an intentional change.
func TestBatchGoldenResponseShape(t *testing.T) {
	dir := t.TempDir()
	// Seed the disk tier with the search spec's plan, then restart cold so
	// the first batch entry must come from disk.
	sA, tsA, _ := storeTestServer(t, Config{}, dir, true, "")
	if resp, data := post(t, tsA.URL+"/v1/plan", searchPlanBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed request: %d: %s", resp.StatusCode, data)
	}
	sA.fills.Wait()

	_, tsB, _ := storeTestServer(t, Config{}, dir, true, "")
	body := fmt.Sprintf(`{"requests":[%s,%s,%s,{"arch":"edge","model":"bert","seq_len":-1,"system":"unfused"}]}`,
		searchPlanBody, searchPlanBody, fastPlanBody)
	resp, data := post(t, tsB.URL+"/v1/plan/batch", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}

	got := elapsedRe.ReplaceAll(data, []byte(`"elapsed_ms": 0`))
	goldenPath := filepath.Join("testdata", "golden", "batch_response.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run: go test ./internal/serve -run TestBatchGoldenResponseShape -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch response drifted from golden (regenerate with -update if intentional):\ngot:\n%s\nwant:\n%s", got, want)
	}
}
