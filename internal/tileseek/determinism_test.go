package tileseek

import (
	"context"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// Two searches with the same seed must agree exactly: the same best
// configuration AND the same observable work — the rollout counter in an
// attached metrics registry must match, and equal the requested budget.
func TestSearchSeedDeterminismWithMetrics(t *testing.T) {
	s := testSpace()
	obj := syntheticObjective(s.Workload)
	const budget, seed = 120, 99

	run := func() (Result, obs.Snapshot) {
		reg := obs.NewRegistry()
		ctx := obs.WithMetrics(context.Background(), reg)
		res, err := SearchWithOptions(ctx, s, obj, Options{Iterations: budget, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Snapshot()
	}
	r1, m1 := run()
	r2, m2 := run()

	if r1.Best != r2.Best || r1.BestCost != r2.BestCost {
		t.Fatalf("nondeterministic best: %v/%v vs %v/%v", r1.Best, r1.BestCost, r2.Best, r2.BestCost)
	}
	if r1.Evaluated != r2.Evaluated || r1.Pruned != r2.Pruned {
		t.Fatalf("nondeterministic work: eval %d/%d pruned %d/%d",
			r1.Evaluated, r2.Evaluated, r1.Pruned, r2.Pruned)
	}
	if got := m1.Counters["tileseek.rollouts"]; got != budget {
		t.Fatalf("rollouts counter = %d, want the budget %d", got, budget)
	}
	for _, name := range []string{"tileseek.rollouts", "tileseek.evaluated", "tileseek.pruned", "tileseek.searches"} {
		if m1.Counters[name] != m2.Counters[name] {
			t.Fatalf("counter %s differs across identical seeds: %d vs %d",
				name, m1.Counters[name], m2.Counters[name])
		}
	}
	// A different seed explores differently (counters may coincide, the
	// PRNG stream must not): sanity-check that the seed is actually used.
	reg3 := obs.NewRegistry()
	res3, err := SearchWithOptions(obs.WithMetrics(context.Background(), reg3), s, obj,
		Options{Iterations: budget, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	if reg3.Snapshot().Counters["tileseek.rollouts"] != budget {
		t.Fatalf("rollouts under a different seed = %d", reg3.Snapshot().Counters["tileseek.rollouts"])
	}
	_ = res3 // best may legitimately coincide on a smooth landscape
}

// Progress events arrive once per rollout, in order, with a final event
// carrying the returned best.
func TestSearchProgressEvents(t *testing.T) {
	s := testSpace()
	obj := syntheticObjective(s.Workload)
	const budget = 40
	var events []obs.RolloutDone
	res, err := SearchWithOptions(context.Background(), s, obj, Options{
		Iterations: budget,
		Seed:       7,
		Progress: func(ev obs.Event) {
			rd, ok := ev.(obs.RolloutDone)
			if !ok {
				t.Fatalf("unexpected event %T", ev)
			}
			events = append(events, rd)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != budget {
		t.Fatalf("got %d rollout events, want %d", len(events), budget)
	}
	for i, ev := range events {
		if ev.Iteration != i+1 || ev.Budget != budget {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	last := events[len(events)-1]
	if !last.Found || last.BestCost != res.BestCost {
		t.Fatalf("final event %+v does not match result best %v", last, res.BestCost)
	}
}

// The objective memo must be indistinguishable from fresh evaluations: the
// objective is paid exactly once per distinct configuration (every paid call
// is a cache miss), repeats are served as hits, hits+misses equals the
// evaluations the search consumed, and every value handed out — the best
// included — equals a direct objective call.
func TestObjectiveCacheCorrectness(t *testing.T) {
	s := testSpace()
	pure := syntheticObjective(s.Workload)

	calls := map[tiling.Config]int{}
	served := map[tiling.Config]float64{}
	obj := func(c tiling.Config) (float64, bool) {
		calls[c]++
		cost, ok := pure(c)
		served[c] = cost
		return cost, ok
	}

	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	res, err := SearchWithOptions(ctx, s, obj, Options{Iterations: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	for c, n := range calls {
		if n != 1 {
			t.Fatalf("objective paid %d times for %v, want once", n, c)
		}
		if fresh, ok := pure(c); !ok || fresh != served[c] {
			t.Fatalf("memoised value for %v = %v, fresh evaluation = %v", c, served[c], fresh)
		}
	}
	if fresh, ok := pure(res.Best); !ok || fresh != res.BestCost {
		t.Fatalf("best cost %v does not match a fresh evaluation %v", res.BestCost, fresh)
	}

	snap := reg.Snapshot()
	hits, misses := snap.Counters["tileseek.cache_hits"], snap.Counters["tileseek.cache_misses"]
	if hits == 0 {
		t.Fatalf("cache never hit (hits=%d misses=%d)", hits, misses)
	}
	if misses != int64(len(calls)) {
		t.Fatalf("cache_misses = %d, want the %d objective calls actually paid", misses, len(calls))
	}
	if hits+misses != int64(res.Evaluated) {
		t.Fatalf("hits+misses = %d, want consumed evaluations %d", hits+misses, res.Evaluated)
	}
}
