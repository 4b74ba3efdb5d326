package dpipe_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
	"github.com/fusedmindlab/transfusion/internal/model"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// tileSweep returns the heuristic tile and neighbours that halve or double
// its query, key/value and FFN tiles, so the sub-layer problems cover short
// and long epoch counts (exact and extrapolated DP regimes).
func tileSweep(t *testing.T, w pipeline.Workload, spec arch.Spec) []tiling.Config {
	t.Helper()
	h, err := tiling.HeuristicTile(w, spec)
	if err != nil {
		t.Fatal(err)
	}
	tiles := []tiling.Config{h}
	for _, scale := range []func(int) int{func(v int) int { return v / 2 }, func(v int) int { return v * 2 }} {
		c := h
		c.P, c.M0, c.S = scale(h.P), scale(h.M0), scale(h.S)
		if c.P >= 1 && c.M0 >= 1 && c.S >= 1 && c.P <= w.SeqLen && c.M0 <= w.SeqLen && c.S <= w.Model.S {
			tiles = append(tiles, c)
		}
	}
	return tiles
}

// Every candidate of every TransFusion sub-layer problem, over a tile sweep
// on the cloud, edge and edge64 presets with causal masking on and off,
// evaluates bit-identically in the compiled core and the map-keyed
// reference — cold, and under a finite warm bound (the plan's own winning
// total with the planner's slack) with the winner supplied as a hint.
func TestCompiledMatchesReferenceOnSubLayers(t *testing.T) {
	compared := 0
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge(), arch.Edge64()} {
		for _, causal := range []bool{false, true} {
			w := pipeline.Workload{Model: model.Llama3(), SeqLen: 4096, Batch: model.EvalBatch, Causal: causal}
			for _, tile := range tileSweep(t, w, spec) {
				probs, err := pipeline.BuildProblems(w, spec, pipeline.TransFusion(), tile)
				if err != nil {
					t.Fatal(err)
				}
				for name, p := range probs {
					cold, err := dpipe.Plan(p, spec, dpipe.DefaultOptions())
					if err != nil {
						t.Fatal(err)
					}
					opts := dpipe.DefaultOptions()
					opts.WarmHints = []dpipe.Hint{{Order: cold.Order, First: cold.Bipartition.FirstSorted()}}
					n, err := dpipe.CheckCompiledAgainstReference(p, spec, opts, cold.TotalCycles*(1+1e-9))
					if err != nil {
						t.Fatalf("%s causal=%v tile %v %s: %v", spec.Name, causal, tile, name, err)
					}
					compared += n
				}
			}
		}
	}
	t.Logf("%d sub-layer candidate evaluations bit-identical to the reference", compared)
}

// shape is a DAG signature: each node with its successors.
func shape(p *dpipe.Problem) string {
	var b strings.Builder
	for _, n := range p.Deps.Nodes() {
		fmt.Fprintf(&b, "%s>%s;", n, strings.Join(p.Deps.Succ(n), ","))
	}
	return b.String()
}

// A full tile-searched evaluation, planning its sub-layers concurrently,
// builds each DAG shape's frontier exactly once: dpipe.frontier_builds
// equals the number of distinct sub-layer shapes, however many plans ran.
func TestFrontierBuildsEqualDistinctShapes(t *testing.T) {
	spec := arch.Edge()
	w := pipeline.Workload{Model: model.BERT(), SeqLen: 4096, Batch: model.EvalBatch}
	dpipe.ResetFrontiers()
	reg := obs.NewRegistry()
	opts := pipeline.DefaultOptions()
	opts.TileSeekIterations = 8
	opts.Parallelism = 4
	res, err := pipeline.EvaluateContext(obs.WithMetrics(context.Background(), reg), w, spec, pipeline.TransFusion(), opts)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := pipeline.BuildProblems(w, spec, pipeline.TransFusion(), res.Tile)
	if err != nil {
		t.Fatal(err)
	}
	shapes := map[string]bool{}
	for _, p := range probs {
		shapes[shape(p)] = true
	}
	builds, plans := reg.Counter("dpipe.frontier_builds").Value(), reg.Counter("dpipe.plans").Value()
	if builds != int64(len(shapes)) {
		t.Fatalf("dpipe.frontier_builds = %d over %d plans, want %d (one per distinct shape)", builds, plans, len(shapes))
	}
	t.Logf("%d plans, %d frontier builds", plans, builds)
	if plans <= builds {
		t.Fatalf("only %d plans for %d builds; the evaluation never reused a frontier", plans, builds)
	}
}
