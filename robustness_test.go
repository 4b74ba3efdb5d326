package transfusion

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestRunRejectsInvalidSpecsTyped drives Run with adversarial specs and
// requires every rejection to be a typed ErrInvalidSpec — never a panic,
// never an untyped error from deep inside the machinery.
func TestRunRejectsInvalidSpecsTyped(t *testing.T) {
	cases := []struct {
		name string
		spec RunSpec
	}{
		{"unknown arch", RunSpec{Arch: "gpu", Model: "t5", SeqLen: 4096, System: "fusemax"}},
		{"unknown model", RunSpec{Arch: "cloud", Model: "gpt", SeqLen: 4096, System: "fusemax"}},
		{"unknown system", RunSpec{Arch: "cloud", Model: "t5", SeqLen: 4096, System: "magic"}},
		{"zero seq", RunSpec{Arch: "cloud", Model: "t5", SeqLen: 0, System: "fusemax"}},
		{"negative seq", RunSpec{Arch: "cloud", Model: "t5", SeqLen: -4096, System: "fusemax"}},
		{"huge seq", RunSpec{Arch: "cloud", Model: "t5", SeqLen: MaxSeqLen + 1, System: "fusemax"}},
		{"negative batch", RunSpec{Arch: "cloud", Model: "t5", SeqLen: 4096, System: "fusemax", Batch: -1}},
		{"huge batch", RunSpec{Arch: "cloud", Model: "t5", SeqLen: 4096, System: "fusemax", Batch: MaxBatch + 1}},
		{"negative budget", RunSpec{Arch: "cloud", Model: "t5", SeqLen: 4096, System: "transfusion", SearchBudget: -5}},
		{"bad custom model", RunSpec{Arch: "cloud", Model: "x", SeqLen: 4096, System: "fusemax",
			CustomModel: &CustomModel{Name: "x", Heads: -1, HeadDim: 64, FFNHidden: 128, Layers: 2, Activation: "relu"}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Run(c.spec)
			if err == nil {
				t.Fatalf("Run(%+v) succeeded, want error", c.spec)
			}
			if !errors.Is(err, ErrInvalidSpec) {
				t.Fatalf("Run(%+v) error %v does not match ErrInvalidSpec", c.spec, err)
			}
		})
	}
}

// Validate runs exactly the checks Run runs before any evaluation work: it
// accepts a runnable spec and rejects a malformed one with Run's own error.
func TestValidateMatchesRun(t *testing.T) {
	if err := (RunSpec{Arch: "edge", Model: "bert", SeqLen: 1024, System: "unfused"}).Validate(); err != nil {
		t.Fatalf("Validate(valid spec) = %v", err)
	}
	for _, spec := range []RunSpec{
		{Arch: "gpu", Model: "t5", SeqLen: 4096, System: "fusemax"},
		{Arch: "cloud", Model: "gpt", SeqLen: 4096, System: "fusemax"},
		{Arch: "cloud", Model: "t5", SeqLen: 4096, System: "magic"},
		{Arch: "cloud", Model: "t5", SeqLen: 0, System: "fusemax"},
	} {
		_, runErr := Run(spec)
		err := spec.Validate()
		if !errors.Is(err, ErrInvalidSpec) || runErr == nil || err.Error() != runErr.Error() {
			t.Fatalf("Validate(%+v) = %v, want Run's error %v", spec, err, runErr)
		}
	}
}

func TestRunContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, RunSpec{Arch: "cloud", Model: "bert", SeqLen: 1024, System: "transfusion"})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, does not also match context.Canceled", err)
	}
}

func TestCompareContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompareContext(ctx, "cloud", "bert", 1024); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestRunExperimentContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// table1/table3 are static renders; fig8b actually evaluates and must
	// observe the canceled context.
	if _, err := RunExperimentContext(ctx, "fig8b", 8); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestRunExperimentRejectsNegativeBudget(t *testing.T) {
	if _, err := RunExperiment("headline", -1); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("err = %v, want ErrInvalidSpec", err)
	}
	if _, err := RunExperimentCSV("headline", -1); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("err = %v, want ErrInvalidSpec", err)
	}
}

func TestUnknownExperimentTyped(t *testing.T) {
	if _, err := RunExperiment("fig999", 0); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("err = %v, want ErrInvalidSpec", err)
	}
}

// TestRunNeverPanics sweeps a grid of hostile spec values; Run must return
// (result, error), never panic. The recover boundary converts any internal
// defect to a *InternalError, which would still fail the test visibly below.
func TestRunNeverPanics(t *testing.T) {
	seqs := []int{-1, 0, 1, 2, 3, 7, 1024, MaxSeqLen + 1}
	batches := []int{-7, 0, 1, 3, MaxBatch + 1}
	systems := []string{"", "transfusion", "unfused", "???"}
	for _, seq := range seqs {
		for _, b := range batches {
			for _, sys := range systems {
				spec := RunSpec{Arch: "edge", Model: "t5", SeqLen: seq, Batch: b, System: sys, SearchBudget: 4}
				_, err := Run(spec)
				var ie *InternalError
				if errors.As(err, &ie) {
					t.Fatalf("Run(%+v) hit an internal defect: %v", spec, ie)
				}
			}
		}
	}
}

func TestScheduleTraceRejectsBadSeq(t *testing.T) {
	if _, err := ScheduleTrace("cloud", "bert", -5, "mha", 4, 80); !errors.Is(err, ErrInvalidSpec) {
		t.Fatalf("err = %v, want ErrInvalidSpec", err)
	}
}

func TestDegradedReasonMentionsHeuristic(t *testing.T) {
	// A clean run must not be degraded.
	r, err := Run(RunSpec{Arch: "cloud", Model: "bert", SeqLen: 1024, System: "transfusion", SearchBudget: 8})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if r.Degraded || r.DegradedReason != "" {
		t.Fatalf("clean run marked degraded: %v %q", r.Degraded, r.DegradedReason)
	}
	if strings.Contains(r.Tile, "tile{") == false {
		t.Fatalf("tile not rendered: %q", r.Tile)
	}
}

func TestSearchTimeoutDegrades(t *testing.T) {
	// An immediately-expiring soft timeout must not fail the run: it falls
	// back to the heuristic tile and reports why.
	r, err := Run(RunSpec{Arch: "cloud", Model: "bert", SeqLen: 1024, System: "transfusion",
		SearchBudget: 1 << 16, SearchTimeout: 1})
	if err != nil {
		t.Fatalf("Run with 1ns SearchTimeout failed: %v", err)
	}
	if !r.Degraded {
		t.Fatal("run with expired SearchTimeout not marked degraded")
	}
	if !strings.Contains(r.DegradedReason, "heuristic") {
		t.Fatalf("DegradedReason %q does not mention the heuristic fallback", r.DegradedReason)
	}
	if !strings.Contains(r.Tile, "tile{") {
		t.Fatalf("degraded run has no usable tile: %q", r.Tile)
	}
}
