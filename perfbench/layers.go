package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/internal/cluster"
	"github.com/fusedmindlab/transfusion/internal/dpipe"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
	"github.com/fusedmindlab/transfusion/internal/serve"
	"github.com/fusedmindlab/transfusion/internal/store"
	"github.com/fusedmindlab/transfusion/internal/tileseek"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// Replay sizes: enough calls that each per-call figure is well above the
// clock's resolution, few enough that a replay pass takes seconds.
const (
	cyclesReps   = 200
	ownerReps    = 400
	handlerCalls = 300
)

// replayInput is one search the replay runs, warm when hint is set.
type replayInput struct {
	spec transfusion.RunSpec
	hint *transfusion.PlanSummary
}

// replaySet is a workload's generated inputs as the in-process replay uses
// them: the searches to run, the plans the workload stored or answered, the
// specs behind every key, and the cluster's member URLs (self first).
type replaySet struct {
	searches []replayInput
	stored   map[string]transfusion.RunResult
	specs    map[string]transfusion.RunSpec
	members  []string
}

// layerCounts are the work counts the replay observes at layer boundaries.
type layerCounts struct {
	cyclesCalls  int64
	examined     int64
	valid        int64
	objCalls     int64
	evaluated    int64
	searches     int64
	ownerCalls   int64
	dpPlans      int64
	dpCells      int64
	dpCandidates int64
	dpDedup      int64
}

// replay runs the workload's inputs through each layer's public functions,
// one span per call. With rec nil it runs the same calls untimed by spans.
func replay(rs replaySet, rec *recorder, dir string) (layerCounts, error) {
	var n layerCounts
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)
	for _, in := range rs.searches {
		if err := replaySearch(ctx, in, rec, rec.request(), &n); err != nil {
			return n, err
		}
	}
	c := reg.Snapshot().Counters
	n.dpPlans, n.dpCells = c["dpipe.plans"], c["dpipe.dp_cells"]
	n.dpCandidates, n.dpDedup = c["dpipe.candidates"], c["dpipe.dedup_skipped"]

	keys := make([]string, 0, len(rs.stored))
	for k := range rs.stored {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) < 2 {
		return n, fmt.Errorf("replay needs at least two stored plans, have %d", len(keys))
	}

	req := rec.request()
	root := rec.begin(req, 0, "replay.store")
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return n, err
	}
	for _, k := range keys {
		h := rec.begin(req, root.id, "store.put")
		err := st.Put(ctx, k, rs.stored[k])
		h.end()
		if err != nil {
			return n, err
		}
	}
	h := rec.begin(req, root.id, "store.open")
	st, err = store.Open(dir, 0, nil)
	h.end()
	if err != nil {
		return n, err
	}
	for _, k := range keys {
		h := rec.begin(req, root.id, "store.get")
		_, ok := st.Get(ctx, k)
		h.end()
		if !ok {
			return n, fmt.Errorf("store.Get missed stored key %s", k)
		}
	}
	for _, k := range keys {
		h := rec.begin(req, root.id, "store.nearest")
		st.Nearest(ctx, k)
		h.end()
	}
	root.end()

	req = rec.request()
	cl, err := cluster.New(cluster.Config{Self: rs.members[0], Peers: rs.members})
	if err != nil {
		return n, err
	}
	h = rec.begin(req, 0, "cluster.owner")
	for i := 0; i < ownerReps; i++ {
		for _, k := range keys {
			if cl.Owner(k) == "" {
				return n, fmt.Errorf("cluster.Owner: no owner for %s", k)
			}
			n.ownerCalls++
		}
	}
	h.end()

	req = rec.request()
	root = rec.begin(req, 0, "replay.serve")
	mem := serve.New(serve.Config{Store: st, CacheEntries: len(keys)}, obs.NewRegistry(), context.Background())
	disk := serve.New(serve.Config{Store: st, CacheEntries: 1, ColdStart: true}, obs.NewRegistry(), context.Background())
	for _, tier := range []struct {
		name, source string
		h            http.Handler
	}{{"serve.handler_memory", "memory", mem.Handler()}, {"serve.handler_disk", "disk", disk.Handler()}} {
		for i := 0; i < handlerCalls; i++ {
			s := rs.specs[keys[i%len(keys)]]
			body := fmt.Sprintf(`{"arch":%q,"model":%q,"seq_len":%d,"system":%q,"search_budget":%d,"causal":%t}`,
				s.Arch, s.Model, s.SeqLen, s.System, s.SearchBudget, s.Causal)
			w := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body))
			h := rec.begin(req, root.id, tier.name)
			tier.h.ServeHTTP(w, r)
			h.end()
			if w.Code != http.StatusOK || w.Header().Get("X-Plan-Source") != tier.source {
				return n, fmt.Errorf("%s: status %d from %q, want 200 from %s", tier.name, w.Code, w.Header().Get("X-Plan-Source"), tier.source)
			}
		}
	}
	root.end()
	return n, nil
}

// replaySearch runs one spec through tileseek (with the benchmark's own
// objective closure over pipeline.EvaluateWithTile), then builds the
// winning tile's problems and runs perf, graph and dpipe on them.
func replaySearch(ctx context.Context, in replayInput, rec *recorder, req int64, n *layerCounts) error {
	r, err := resolve(in.spec)
	if err != nil {
		return err
	}
	root := rec.begin(req, 0, "replay.request")
	defer root.end()

	// Evaluations inside the search run serially, as the pipeline runs them;
	// the search's own speculation supplies the parallelism.
	inner := pipeline.DefaultOptions()
	inner.Parallelism = 1
	inner.DPipe.Parallelism = 1
	tsOpts := tileseek.Options{Iterations: in.spec.SearchBudget, Seed: inner.TileSeekSeed}
	var dHints map[string][]dpipe.Hint
	if in.hint != nil {
		tile := tileOf(in.hint)
		tsOpts.Hint = &tile
		tsOpts.Iterations = max(in.spec.SearchBudget/4, 4) // the pipeline's warm budget
		inner.WarmHint = &pipeline.WarmHint{Tile: tile, Layers: map[string]pipeline.LayerPlan{}}
		dHints = map[string][]dpipe.Hint{}
		for name, lp := range in.hint.Layers {
			inner.WarmHint.Layers[name] = pipeline.LayerPlan{Order: lp.Order, First: lp.First, Epochs: lp.Epochs}
			if len(lp.Order) > 0 {
				dHints[name] = []dpipe.Hint{{Order: lp.Order, First: lp.First}}
			}
		}
	}
	search := rec.begin(req, root.id, "tileseek.search")
	var calls atomic.Int64
	objective := func(c tiling.Config) (float64, bool) {
		calls.Add(1)
		h := rec.begin(req, search.id, "pipeline.objective")
		res, err := pipeline.EvaluateWithTile(r.w, r.arch, r.sys, c, inner)
		h.end()
		if err != nil {
			return 0, false
		}
		return res.TotalCycles * res.Energy.Total(), true
	}
	sr, err := tileseek.SearchWithOptions(context.Background(), tileseek.DefaultSpace(r.w, r.arch), objective, tsOpts)
	search.end()
	if err != nil {
		return err
	}
	if !sr.Found {
		return fmt.Errorf("%s: tile search found no feasible tile", in.spec.CanonicalKey())
	}
	n.searches++
	n.objCalls += calls.Load()
	n.evaluated += int64(sr.Evaluated)

	h := rec.begin(req, root.id, "pipeline.eval")
	_, err = pipeline.EvaluateWithTile(r.w, r.arch, r.sys, sr.Best, inner)
	h.end()
	if err != nil {
		return err
	}
	h = rec.begin(req, root.id, "pipeline.build")
	probs, err := pipeline.BuildProblems(r.w, r.arch, r.sys, sr.Best)
	h.end()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(probs))
	for name := range probs {
		names = append(names, name)
	}
	sort.Strings(names)

	h = rec.begin(req, root.id, "perf.cycles")
	for i := 0; i < cyclesReps; i++ {
		for _, name := range names {
			for _, op := range probs[name].Ops {
				op.Cycles(r.arch, perf.PE2D)
				op.Cycles(r.arch, perf.PE1D)
				n.cyclesCalls += 2
			}
		}
	}
	h.end()

	dopts := dpipe.DefaultOptions()
	dopts.Parallelism = 1
	for _, name := range names {
		p := probs[name]
		h := rec.begin(req, root.id, "graph.bipartition")
		parts, examined, err := p.Deps.BipartitionsBounded(ctx, dopts.MaxEnumeration)
		h.end()
		if err != nil {
			return err
		}
		n.examined += int64(examined)
		n.valid += int64(len(parts))

		o := dopts
		o.WarmHints = dHints[name]
		h = rec.begin(req, root.id, "dpipe.plan")
		_, err = dpipe.PlanContext(ctx, p, r.arch, o)
		h.end()
		if err != nil {
			return err
		}
	}
	return nil
}

// layerNames are the layers whose self time the traced run reports.
var layerNames = []string{"client", "perf", "graph", "dpipe", "pipeline", "tileseek", "store", "cluster", "serve"}

// reportLayers runs the in-process replay untraced and traced, then prints
// the per-layer metrics: work counts and per-call times from the traced
// pass, ratios from the workload's /metrics deltas and answer sources, self
// time per layer, and the tracing overhead.
func (b *bench) reportLayers(out *outcome, prov map[string]interface{}) error {
	rec := out.spans
	// A discarded warm-up pass, then three untraced and three traced passes
	// in ABBAAB order, so warm-up and drift fall on both sides alike. Only
	// the last traced pass records into rec; the per-layer metrics read it.
	var untracedS, tracedS []float64
	var n layerCounts
	clientSpans := len(rec.spans)
	passes := []bool{false, false, true, true, false, false, true}
	for i, on := range passes {
		var r *recorder
		if on {
			r = newRecorder()
			if i == len(passes)-1 {
				r = rec
			}
		}
		t0 := time.Now()
		cnt, err := replay(out.replay, r, filepath.Join(b.dir, fmt.Sprintf("replay-%d", i)))
		if err != nil {
			return err
		}
		switch d := time.Since(t0).Seconds(); {
		case i == 0:
		case on:
			tracedS, n = append(tracedS, d), cnt
		default:
			untracedS = append(untracedS, d)
		}
	}
	untraced, traced := median(untracedS), median(tracedS)
	// With few spans per pass the pass-to-pass difference is mostly noise,
	// so the recorder's own cost per span is printed beside it.
	probe := newRecorder()
	const probeSpans = 100000
	t0 := time.Now()
	for i := 0; i < probeSpans; i++ {
		probe.begin(1, 0, "probe").end()
	}
	perSpan := time.Since(t0) / probeSpans
	passSpans := len(rec.spans) - clientSpans

	meanMS := func(name string) float64 {
		d := rec.durations(name)
		if len(d) == 0 {
			return 0
		}
		var sum time.Duration
		for _, x := range d {
			sum += x
		}
		return float64(sum) / float64(len(d)) / float64(time.Millisecond)
	}
	total := func(name string) time.Duration {
		var sum time.Duration
		for _, x := range rec.durations(name) {
			sum += x
		}
		return sum
	}
	d := out.delta
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	set("perf.cycles_ns", float64(total("perf.cycles").Nanoseconds())/float64(n.cyclesCalls), "ns")
	set("graph.bipartition_ms", meanMS("graph.bipartition"), "ms")
	set("graph.bipartitions_examined", float64(n.examined), "count")
	set("graph.valid_ratio", ratio(n.valid, n.examined), "ratio")
	set("dpipe.plan_ms", meanMS("dpipe.plan"), "ms")
	set("dpipe.dp_cells_per_plan", ratio(n.dpCells, n.dpPlans), "count")
	set("dpipe.candidates_per_plan", ratio(n.dpCandidates, n.dpPlans), "count")
	set("dpipe.dedup_ratio", ratio(n.dpDedup, n.dpCandidates+n.dpDedup), "ratio")
	set("pipeline.build_ms", meanMS("pipeline.build"), "ms")
	set("pipeline.eval_ms", meanMS("pipeline.eval"), "ms")
	set("tileseek.search_ms", meanMS("tileseek.search"), "ms")
	set("tileseek.evals_per_search", ratio(n.evaluated, n.searches), "count")
	set("tileseek.useful_eval_ratio", ratio(n.evaluated, n.objCalls), "ratio")
	set("tileseek.memo_hit_ratio", ratio(d["tileseek.cache_hits"], d["tileseek.cache_hits"]+d["tileseek.cache_misses"]), "ratio")
	set("tileseek.warm_seed_share", ratio(d["tileseek.warm_seeds"], d["tileseek.searches"]), "ratio")
	set("store.open_ms", meanMS("store.open"), "ms")
	set("store.get_ms", meanMS("store.get"), "ms")
	set("store.nearest_ms", meanMS("store.nearest"), "ms")
	set("store.put_ms", meanMS("store.put"), "ms")
	set("store.hit_ratio", ratio(d["store.hits"], d["store.hits"]+d["store.misses"]), "ratio")
	set("cluster.owner_ns", float64(total("cluster.owner").Nanoseconds())/float64(n.ownerCalls), "ns")
	set("cluster.peer_hit_ratio", ratio(d["serve.peer.hits"], d["serve.peer.forwards"]), "ratio")
	set("serve.handler_memory_us", meanMS("serve.handler_memory")*1e3, "us")
	set("serve.handler_disk_us", meanMS("serve.handler_disk")*1e3, "us")
	set("serve.cache_hit_ratio", ratio(d["serve.cache_hits"], d["serve.cache_hits"]+d["serve.cache_misses"]), "ratio")
	sources := map[string]int64{}
	for _, s := range out.samples {
		if !s.failed {
			sources[s.source]++
		}
	}
	for _, src := range []string{"memory", "disk", "peer", "search", "warm-search", "peer-warm"} {
		set("serve.source_share."+src, ratio(sources[src], int64(len(out.samples))), "ratio")
	}
	set("client.plan_ms", meanMS("client.plan"), "ms")
	set("trace.overhead_pct", 100*(traced-untraced)/untraced, "%")
	self := rec.selfTimes()
	for _, l := range layerNames {
		set(l+".self_ms", float64(self[l])/float64(time.Millisecond), "ms")
	}

	fmt.Printf("%-12s %12s\n", "layer", "self ms")
	for _, l := range layerNames {
		fmt.Printf("%-12s %12.3f\n", l, float64(self[l])/float64(time.Millisecond))
	}
	fmt.Printf("tracing overhead: replay %.3fs untraced, %.3fs traced, medians of %d passes each (%+.2f%%)\n",
		untraced, traced, len(tracedS), m["trace.overhead_pct"].Value)
	fmt.Printf("recording cost: %v per span x %d spans per pass = %.3f ms\n",
		perSpan, passSpans, float64(perSpan*time.Duration(passSpans))/float64(time.Millisecond))
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	path := filepath.Join(b.cfg.workdir, "traces", fmt.Sprintf("%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	if err := rec.writeChrome(path, prov); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (load in ui.perfetto.dev)\n", len(rec.spans), path)
	failed := out.failures
	for _, s := range out.samples {
		if s.failed {
			failed++
		}
	}
	return printResult(result{Correct: failed == 0, Attempted: len(out.samples), Failed: failed, Metrics: m})
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
