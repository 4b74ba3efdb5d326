package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/obs"
)

// FuzzServePlan throws arbitrary bodies at the shared plan-request decoder
// through every route that uses it — /v1/plan, /v1/peer/plan and
// /v1/peer/cached: malformed JSON, wrong field types, extreme extents,
// unknown fields. No handler may panic; each must answer a well-formed JSON
// error with a 4xx for anything invalid (a cache-only miss is a 404), and
// any 200 body must decode back into a PlanResponse with a plausible
// result. Server caps are kept tiny so even a "valid" fuzz input evaluates
// in microseconds.
func FuzzServePlan(f *testing.F) {
	seeds := []string{
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused"}`,
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"transfusion","search_budget":2}`,
		`{"arch":"cloud","model":"llama3","seq_len":4096,"system":"fusemax","batch":64,"causal":true}`,
		`{"arch":`,
		`{}`,
		`null`,
		`[1,2,3]`,
		`{"arch":"edge","model":"bert","seq_len":"big","system":"unfused"}`,
		`{"arch":"edge","model":"bert","seq_len":1e30,"system":"unfused"}`,
		`{"arch":"edge","model":"bert","seq_len":-9223372036854775808,"system":"unfused"}`,
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused","batch":-1}`,
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused","extra":1}`,
		`{"arch":"edge","model":"bert","seq_len":1024,"system":"unfused"}{"trailing":true}`,
		`{"arch":"\u0000","model":"bert","seq_len":1024,"system":"unfused"}`,
		strings.Repeat("[", 1000),
	}
	for _, s := range seeds {
		f.Add(s)
	}

	srv := New(Config{
		MaxSeqLen:       4096,
		MaxSearchBudget: 8,
		Parallelism:     1,
		CacheEntries:    64,
	}, obs.NewRegistry(), context.Background())
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, body string) {
		for _, route := range []string{"/v1/plan", "/v1/peer/plan", "/v1/peer/cached"} {
			req := httptest.NewRequest(http.MethodPost, route, strings.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req) // must not panic

			resp := rec.Result()
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: reading recorded body: %v", route, err)
			}
			switch {
			case resp.StatusCode == http.StatusOK:
				var pr PlanResponse
				if err := json.Unmarshal(data, &pr); err != nil {
					t.Fatalf("%s: 200 body is not a PlanResponse: %v\n%s", route, err, data)
				}
				if pr.Result.Cycles <= 0 || pr.Result.System == "" {
					t.Fatalf("%s: 200 with implausible result: %+v", route, pr.Result)
				}
			case resp.StatusCode >= 400 && resp.StatusCode < 500:
				var er errorResponse
				if err := json.Unmarshal(data, &er); err != nil {
					t.Fatalf("%s: %d body is not an errorResponse: %v\n%s", route, resp.StatusCode, err, data)
				}
				if er.Status != resp.StatusCode || er.Error == "" {
					t.Fatalf("%s: %d with inconsistent error body: %+v", route, resp.StatusCode, er)
				}
			default:
				// No fuzz input should reach a 5xx: decoding and validation
				// run before any evaluation, and the evaluation itself is
				// bounded by the tiny caps above.
				t.Fatalf("%s: unexpected status %d:\n%s", route, resp.StatusCode, data)
			}
		}
	})
}
