package dpipe

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// resetFrontiers empties the process-wide frontier table, so the next plan
// of every shape builds its frontier again.
func resetFrontiers() {
	frontiers.Lock()
	frontiers.m = make(map[string]*frontierSlot)
	frontiers.Unlock()
}

// ResetFrontiers exposes resetFrontiers to the external test package.
var ResetFrontiers = resetFrontiers

// frontierCount returns the number of stored frontiers.
func frontierCount() int {
	frontiers.Lock()
	defer frontiers.Unlock()
	return len(frontiers.m)
}

// planCounters plans p under a fresh registry and returns the result, the
// registry's counters and the error.
func planCounters(ctx context.Context, p *Problem, opts Options) (Result, map[string]int64, error) {
	reg := obs.NewRegistry()
	res, err := PlanContext(obs.WithMetrics(ctx, reg), p, arch.Cloud(), opts)
	return res, reg.Snapshot().Counters, err
}

// Concurrent plans of one shape, racing on an empty table, build its
// frontier once and all return the serial plan.
func TestFrontierConcurrentPlansIdentical(t *testing.T) {
	resetFrontiers()
	ref, err := Plan(mhaProblem(t, 16), arch.Cloud(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	resetFrontiers()
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	const plans = 8
	results := make([]Result, plans)
	errs := make([]error, plans)
	var wg sync.WaitGroup
	wg.Add(plans)
	for i := 0; i < plans; i++ {
		go func() {
			defer wg.Done()
			opts := DefaultOptions()
			opts.Parallelism = 1 + i%3
			results[i], errs[i] = PlanContext(ctx, mhaProblem(t, 16), arch.Cloud(), opts)
		}()
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("plan %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], ref) {
			t.Fatalf("plan %d diverged from the serial plan:\n%+v\n%+v", i, results[i], ref)
		}
	}
	if got := reg.Counter("dpipe.frontier_builds").Value(); got != 1 {
		t.Fatalf("dpipe.frontier_builds = %d after %d concurrent plans of one shape, want 1", got, plans)
	}
}

// A returned plan owns its Order and Bipartition: mutating them must not
// reach the shared frontier and change a later plan.
func TestFrontierResultIsACopy(t *testing.T) {
	p := mhaProblem(t, 16)
	first, err := Plan(p, arch.Cloud(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Bipartition.First) == 0 {
		t.Fatal("winning MHA plan is unpartitioned; the test needs a bipartition to mutate")
	}
	want, err := Plan(p, arch.Cloud(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Order {
		first.Order[i] = "clobbered"
	}
	for n := range first.Bipartition.First {
		delete(first.Bipartition.First, n)
	}
	first.Bipartition.First["clobbered"] = true
	got, err := Plan(p, arch.Cloud(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mutating a returned plan changed a later one:\n%+v\n%+v", got, want)
	}
}

// A budget below the cached examined count still fails, exactly as a cold
// scan under that budget does: same error, same dpipe.enumerated.
func TestFrontierBudgetBelowCachedScan(t *testing.T) {
	p := mhaProblem(t, 8)
	opts := DefaultOptions()
	opts.MaxEnumeration = 100

	resetFrontiers()
	_, cold, coldErr := planCounters(context.Background(), p, opts)
	if !errors.Is(coldErr, faults.ErrBudgetExhausted) {
		t.Fatalf("cold err = %v, want ErrBudgetExhausted", coldErr)
	}
	if _, err := Plan(p, arch.Cloud(), DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	_, warm, warmErr := planCounters(context.Background(), p, opts)
	if !errors.Is(warmErr, faults.ErrBudgetExhausted) {
		t.Fatalf("cached err = %v, want ErrBudgetExhausted", warmErr)
	}
	if warmErr.Error() != coldErr.Error() {
		t.Fatalf("cached error %q differs from the cold one %q", warmErr, coldErr)
	}
	if cold["dpipe.enumerated"] != int64(opts.MaxEnumeration+1) || warm["dpipe.enumerated"] != cold["dpipe.enumerated"] {
		t.Fatalf("dpipe.enumerated cold %d, cached %d, want both %d",
			cold["dpipe.enumerated"], warm["dpipe.enumerated"], opts.MaxEnumeration+1)
	}
	if warm["dpipe.frontier_builds"] != 0 {
		t.Fatalf("an over-budget plan built a frontier")
	}
}

// Failed enumerations — canceled or over budget — leave nothing in the
// table, so the next plan of the shape builds afresh.
func TestFrontierFailuresNotCached(t *testing.T) {
	p := mhaProblem(t, 8)
	resetFrontiers()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlanContext(ctx, p, arch.Cloud(), DefaultOptions()); !errors.Is(err, faults.ErrCanceled) {
		t.Fatalf("canceled plan err = %v, want ErrCanceled", err)
	}
	if n := frontierCount(); n != 0 {
		t.Fatalf("canceled plan left %d frontiers in the table", n)
	}

	opts := DefaultOptions()
	opts.MaxEnumeration = 1
	if _, err := PlanContext(context.Background(), p, arch.Cloud(), opts); !errors.Is(err, faults.ErrBudgetExhausted) {
		t.Fatalf("over-budget plan err = %v, want ErrBudgetExhausted", err)
	}
	if n := frontierCount(); n != 0 {
		t.Fatalf("over-budget plan left %d frontiers in the table", n)
	}

	_, counters, err := planCounters(context.Background(), p, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if counters["dpipe.frontier_builds"] != 1 || frontierCount() != 1 {
		t.Fatalf("first successful plan: frontier_builds %d, table size %d, want 1 and 1",
			counters["dpipe.frontier_builds"], frontierCount())
	}
}

// Every logical counter keeps its per-plan value whether the plan built its
// frontier or read it from the table, cold and warm-hinted; only
// dpipe.frontier_builds tells the two apart.
func TestFrontierCountersPerPlanUnchanged(t *testing.T) {
	p := mhaProblem(t, 16)
	cold, err := Plan(p, arch.Cloud(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hinted := DefaultOptions()
	hinted.WarmHints = []Hint{{Order: cold.Order, First: cold.Bipartition.FirstSorted()}}
	for name, opts := range map[string]Options{"cold": DefaultOptions(), "warm": hinted} {
		resetFrontiers()
		builtRes, built, err := planCounters(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		cachedRes, cached, err := planCounters(context.Background(), p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(builtRes, cachedRes) {
			t.Fatalf("%s: cached-frontier plan differs from the building one", name)
		}
		if built["dpipe.frontier_builds"] != 1 || cached["dpipe.frontier_builds"] != 0 {
			t.Fatalf("%s: frontier_builds %d then %d, want 1 then 0", name, built["dpipe.frontier_builds"], cached["dpipe.frontier_builds"])
		}
		for _, c := range []string{"dpipe.plans", "dpipe.enumerated", "dpipe.bipartitions", "dpipe.candidates", "dpipe.dp_cells", "dpipe.dedup_skipped"} {
			if built[c] != cached[c] {
				t.Errorf("%s: %s = %d when building, %d from the table", name, c, built[c], cached[c])
			}
		}
		if name == "warm" && cached["dpipe.dedup_skipped"] != 1 {
			t.Errorf("warm: dedup_skipped = %d, want 1 (the hint regenerates one frontier candidate)", cached["dpipe.dedup_skipped"])
		}
	}
}

// A plan on a warm frontier allocates a fixed amount: doubling the explicit
// DP window (and so the cells per candidate) adds no allocation, so the DP
// allocates nothing per cell.
func TestPlanAllocationsIndependentOfWindow(t *testing.T) {
	p := mhaProblem(t, 64)
	allocs := func(window int) float64 {
		opts := DefaultOptions()
		opts.Parallelism = 1
		opts.ExplicitEpochs = window
		if _, err := Plan(p, arch.Cloud(), opts); err != nil { // warm the frontier
			t.Fatal(err)
		}
		return testing.AllocsPerRun(50, func() {
			if _, err := Plan(p, arch.Cloud(), opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, doubled := allocs(12), allocs(24)
	if doubled > base {
		t.Fatalf("allocations grew with the DP window: %v at 12 epochs, %v at 24", base, doubled)
	}
	t.Logf("%v allocations per warm-frontier MHA plan", base)
}
