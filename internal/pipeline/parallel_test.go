package pipeline

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// A full evaluation — tile search, sub-layer scheduling, phases, energy —
// must be bit-identical at every Parallelism setting and GOMAXPROCS value,
// cold and warm-hinted alike. The tile search is one serial trajectory, so
// every tileseek.* counter — the memo's cache_hits and cache_misses
// included — must match the serial reference exactly as well.
func TestEvaluateParallelismBitIdentical(t *testing.T) {
	w := bertWorkload(4096)
	cloud := arch.Cloud()
	neighbour, err := Evaluate(bertWorkload(2048), cloud, TransFusion(), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		hint *WarmHint
	}{
		{"cold", nil},
		{"warm", &WarmHint{Tile: neighbour.Tile, Layers: neighbour.Plans}},
	} {
		name, hint := tc.name, tc.hint
		run := func(parallelism int) (Result, map[string]int64) {
			opts := fastOpts()
			opts.Parallelism = parallelism
			opts.WarmHint = hint
			reg := obs.NewRegistry()
			res, err := EvaluateContext(obs.WithMetrics(context.Background(), reg), w, cloud, TransFusion(), opts)
			if err != nil {
				t.Fatal(err)
			}
			counters := map[string]int64{}
			for k, v := range reg.Snapshot().Counters {
				if strings.HasPrefix(k, "tileseek.") {
					counters[k] = v
				}
			}
			return res, counters
		}
		ref, refCounters := run(1)
		if ref.TotalCycles <= 0 {
			t.Fatalf("%s: degenerate serial reference %+v", name, ref)
		}
		if refCounters["tileseek.cache_misses"] == 0 {
			t.Fatalf("%s: serial reference counted no objective calls: %v", name, refCounters)
		}
		if hint != nil && refCounters["tileseek.warm_seeds"] != 1 {
			t.Fatalf("%s: hint not seeded: %v", name, refCounters)
		}
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for _, parallelism := range []int{1, 4, 0} { // 0 resolves to GOMAXPROCS
					res, counters := run(parallelism)
					if !reflect.DeepEqual(res, ref) {
						t.Fatalf("%s GOMAXPROCS=%d parallelism=%d: result diverged from serial\n got %+v\nwant %+v",
							name, procs, parallelism, res, ref)
					}
					if !reflect.DeepEqual(counters, refCounters) {
						t.Fatalf("%s GOMAXPROCS=%d parallelism=%d: tileseek counters diverged from serial\n got %v\nwant %v",
							name, procs, parallelism, counters, refCounters)
					}
				}
			}
		}()
	}
}

// Parallelism must propagate into the DPipe options only when the caller did
// not pin them explicitly.
func TestParallelismPropagatesToDPipe(t *testing.T) {
	o := Options{Parallelism: 3}
	if got := o.withDefaults().DPipe.Parallelism; got != 3 {
		t.Fatalf("DPipe.Parallelism = %d, want inherited 3", got)
	}
	o = Options{Parallelism: 3}
	o.DPipe.Parallelism = 2
	if got := o.withDefaults().DPipe.Parallelism; got != 2 {
		t.Fatalf("DPipe.Parallelism = %d, want explicit 2", got)
	}
}
