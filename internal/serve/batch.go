package serve

import (
	"net/http"
	"time"

	transfusion "github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/faults"
)

// maxBatchEntries bounds one POST /v1/plan/batch body. The batch route is a
// convenience multiplexer, not a bulk-load path: each entry still pays
// admission individually, so a huge batch would just serialize behind the
// queue anyway.
const maxBatchEntries = 64

// BatchPlanRequest is the POST /v1/plan/batch body: up to maxBatchEntries
// plan requests resolved in order through the same tiers as /v1/plan.
type BatchPlanRequest struct {
	Requests []PlanRequest `json:"requests"`
}

// BatchPlanEntry is one per-request outcome inside a BatchPlanResponse.
// Exactly one of Result / Error is meaningful, discriminated by Status.
type BatchPlanEntry struct {
	// Status is the HTTP status this request would have received on
	// /v1/plan — 200 with Result set, else the faults taxonomy mapping
	// (400 invalid, 429 over capacity, 499 canceled, 500 internal) with
	// Error set.
	Status int `json:"status"`
	// Result is the evaluation outcome (Status 200 only). A degraded entry
	// keeps its Result — Degraded/DegradedReason mark it — so one slow or
	// shed entry never voids its siblings.
	Result *transfusion.RunResult `json:"result,omitempty"`
	// Cached, Key and Source mirror the PlanResponse fields (Status 200
	// only). Source may differ per entry: one batch can mix "memory",
	// "disk", "peer", "warm-search" and "search" answers.
	Cached bool   `json:"cached,omitempty"`
	Key    string `json:"key,omitempty"`
	Source string `json:"source,omitempty"`
	// Error is the failure message (non-200 only).
	Error string `json:"error,omitempty"`
}

// BatchPlanResponse is the POST /v1/plan/batch reply. The HTTP status is 200
// whenever the batch itself was well-formed — per-entry failures live in
// Entries[i].Status, so partial failure is the normal shape, not an error.
type BatchPlanResponse struct {
	// Entries holds one outcome per request, in request order.
	Entries []BatchPlanEntry `json:"entries"`
	// Failed counts entries with a non-200 status.
	Failed int `json:"failed"`
	// DegradedEntries counts status-200 entries whose result is degraded.
	DegradedEntries int     `json:"degraded_entries"`
	ElapsedMS       float64 `json:"elapsed_ms"`
}

// handlePlanBatch resolves a list of plan requests in one round trip. Each
// entry runs through the identical tier ladder as /v1/plan (memory, disk,
// peer, warm-search, search) and fails independently: an invalid or shed
// entry maps to its own status while the rest proceed. Entries are resolved
// sequentially in request order, so identical keys within one batch coalesce
// on the cache rather than racing the singleflight. Whole-batch errors (bad
// JSON, empty or oversized list) answer 400 with no entries.
func (s *Server) handlePlanBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req BatchPlanRequest
	if err := decodeStrict(r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Requests) == 0 {
		s.writeError(w, faults.Invalidf("serve: batch has no requests"))
		return
	}
	if len(req.Requests) > maxBatchEntries {
		s.writeError(w, faults.Invalidf("serve: batch of %d exceeds limit %d", len(req.Requests), maxBatchEntries))
		return
	}
	resp := BatchPlanResponse{Entries: make([]BatchPlanEntry, len(req.Requests))}
	degradeMode := ""
	for i, pr := range req.Requests {
		entry := &resp.Entries[i]
		spec, err := s.specOf(pr)
		var res resolution
		if err == nil {
			res, err = s.resolve(r.Context(), spec, true)
		}
		if err != nil {
			entry.Status = faults.HTTPStatus(err)
			entry.Error = err.Error()
			resp.Failed++
			continue
		}
		if mode := res.stampDegraded(); mode != "" {
			resp.DegradedEntries++
			if degradeMode == "" {
				degradeMode = mode
			}
		}
		*entry = BatchPlanEntry{Status: http.StatusOK, Result: &res.res, Cached: res.cached, Key: res.key, Source: res.source}
	}
	// Same per-response degradation invariant as /v1/compare: one header and
	// one counter however many entries degraded.
	if degradeMode != "" {
		s.markDegraded(r.Context(), w, degradeMode)
	}
	if resp.Failed < len(resp.Entries) {
		s.noteSuccess()
	}
	resp.ElapsedMS = msSince(start)
	writeJSON(w, http.StatusOK, resp)
}
