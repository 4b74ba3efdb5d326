package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fusedmindlab/transfusion"
	"github.com/fusedmindlab/transfusion/client"
	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/cluster"
	"github.com/fusedmindlab/transfusion/internal/model"
	"github.com/fusedmindlab/transfusion/internal/pipeline"
	"github.com/fusedmindlab/transfusion/internal/store"
	"github.com/fusedmindlab/transfusion/internal/tileseek"
	"github.com/fusedmindlab/transfusion/internal/tiling"
)

// A workload generates its inputs from the seed, launches and seeds its
// daemons, runs the timed closed-loop phase and checks every answer.
type workloadFunc func(b *bench) (*outcome, error)

var workloads = map[string]workloadFunc{
	"cold-search":    coldSearch,
	"hot-tiers":      hotTiers,
	"near-miss-fill": nearMissFill,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

var (
	archNames  = []string{"cloud", "edge", "edge32", "edge64"}
	modelNames = []string{"bert", "trxl", "t5", "xlm", "llama3"}
)

// Workload shapes. cold-search and hot-tiers draw sequence lengths from the
// powers of two 2^10..2^17; near-miss-fill fills the multiples of 1024 up to
// 64K between a coarse two-point grid, so a few families give far more gaps
// than a run can request.
const (
	coldBudget      = 4
	hotKeys         = 32
	hotBudget       = 4
	hotCacheSize    = 8
	hotZipfS        = 1.1
	nearBudget      = 16
	nearRepeatEvery = 4
	nearSeqUnit     = 1024
	nearSeqUnits    = 64
	coldCheckKeys   = 3
	nearJobsToDraw  = 5000
)

var nearGrid = []int{8, 48}

// nearFamilies are near-miss-fill's plan families, fixed rather than drawn
// by the seed: warm-search cost differs several-fold between families, and
// the seed only orders the gaps and picks the repeats.
var nearFamilies = []struct {
	arch, model string
	causal      bool
}{
	{"cloud", "llama3", false},
	{"edge", "bert", true},
	{"edge64", "t5", false},
}

func newSpec(archName, modelName string, seq int, causal bool, budget int) transfusion.RunSpec {
	return transfusion.RunSpec{
		Arch: archName, Model: modelName, SeqLen: seq, System: "transfusion",
		SearchBudget: budget, Causal: causal,
	}
}

func wireRequest(s transfusion.RunSpec) client.PlanRequest {
	return client.PlanRequest{
		Arch: s.Arch, Model: s.Model, SeqLen: s.SeqLen, System: s.System,
		SearchBudget: s.SearchBudget, Causal: s.Causal,
	}
}

// edp is the search objective: modelled cycles times energy.
func edp(r transfusion.RunResult) float64 { return r.Cycles * r.EnergyPJ.Total() }

// powerOfTwoSpecs is arch x model x seq_len (2^10..2^17) x causal at one
// budget: 320 distinct keys, the space hot-tiers draws its key set from.
func powerOfTwoSpecs(budget int) []transfusion.RunSpec {
	var out []transfusion.RunSpec
	for _, a := range archNames {
		for _, m := range modelNames {
			for e := 10; e <= 17; e++ {
				for _, c := range []bool{false, true} {
					out = append(out, newSpec(a, m, 1<<e, c, budget))
				}
			}
		}
	}
	return out
}

// coldOrder is the cold-search request sequence over the same 320 keys:
// eight blocks, each a seeded permutation of the 40 (arch, model, causal)
// combinations, with each combination taking a different seeded seq_len in
// every block. Search cost differs mostly between combinations, so making
// every 40 consecutive requests hold each combination once keeps the mix a
// run completes, and with it the run's figures, independent of the seed.
func coldOrder(rng *rand.Rand) []transfusion.RunSpec {
	type combo struct {
		arch, model string
		causal      bool
		seqs        []int
	}
	var combos []combo
	for _, a := range archNames {
		for _, m := range modelNames {
			for _, c := range []bool{false, true} {
				combos = append(combos, combo{a, m, c, rng.Perm(8)})
			}
		}
	}
	var out []transfusion.RunSpec
	for block := 0; block < 8; block++ {
		for _, i := range rng.Perm(len(combos)) {
			c := combos[i]
			out = append(out, newSpec(c.arch, c.model, 1<<(10+c.seqs[block]), c.causal, coldBudget))
		}
	}
	return out
}

// forEach calls fn for 0..n-1 on one goroutine per CPU.
func forEach(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// computeAll evaluates specs in-process, one serial evaluation per CPU at a
// time. heuristic evaluates each on the static heuristic tile instead.
func computeAll(specs []transfusion.RunSpec, heuristic bool) ([]transfusion.RunResult, error) {
	out := make([]transfusion.RunResult, len(specs))
	errs := make([]error, len(specs))
	forEach(len(specs), func(i int) {
		s := specs[i]
		s.Parallelism = 1
		s.HeuristicOnly = heuristic
		out[i], errs[i] = transfusion.RunContext(context.Background(), s)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("evaluating %s: %w", specs[i].CanonicalKey(), err)
		}
	}
	return out, nil
}

// objectiveRatios is each answered key's EDP over the EDP of the static
// heuristic tile for the same key. The ratio is deterministic per key and
// comparable across keys of very different sizes, so its geometric mean is
// a search-quality figure that does not depend on which keys a seed drew.
func objectiveRatios(answers map[string]transfusion.RunResult, specs map[string]transfusion.RunSpec) ([]float64, error) {
	keys := make([]string, 0, len(answers))
	for k := range answers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	list := make([]transfusion.RunSpec, len(keys))
	for i, k := range keys {
		list[i] = specs[k]
	}
	heur, err := computeAll(list, true)
	if err != nil {
		return nil, err
	}
	ratios := make([]float64, len(keys))
	for i, k := range keys {
		ratios[i] = edp(answers[k]) / edp(heur[i])
	}
	return ratios, nil
}

func resultBytes(r transfusion.RunResult) []byte {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // RunResult holds only plain values
	}
	return data
}

// job is one request of the generated sequence.
type job struct {
	key     string
	spec    transfusion.RunSpec
	replica int
}

// sample is one completed request of the timed phase.
type sample struct {
	ms       float64
	source   string
	degraded bool
	failed   bool
}

// outcome is what a workload run measured.
type outcome struct {
	setupS   float64
	elapsed  time.Duration
	samples  []sample
	delta    map[string]int64
	cpu      time.Duration
	rssMB    float64
	ratios   []float64
	failures int // answers that failed a check after the timed phase
	spans    *recorder
	replay   replaySet
}

// drive runs clients closed-loop workers against the running replicas until
// the deadline, or until next reports the sequence exhausted; the request
// each worker started before the deadline completes. Only client.Plan is timed; check runs after the timer and a
// non-nil error counts the request as failed. With rec set, every request
// records a client.plan span.
func (b *bench) drive(clients int, next func(worker int) (job, bool), check func(job, *client.PlanResponse) error, rec *recorder) (*outcome, error) {
	plan := make([]*client.Client, len(b.replicas))
	for i, r := range b.replicas {
		plan[i] = b.planClient(r)
	}
	before, err := b.allCounters()
	if err != nil {
		return nil, err
	}
	cpu0, err := b.cpuTime()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	perWorker := make([][]sample, clients)
	start := time.Now()
	deadline := start.Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j, ok := next(w)
				if !ok {
					return
				}
				sp := rec.begin(rec.request(), 0, "client.plan")
				resp, err := plan[j.replica].Plan(ctx, wireRequest(j.spec))
				d := sp.end()
				s := sample{ms: float64(d) / float64(time.Millisecond)}
				if err == nil {
					s.source = resp.Source
					s.degraded = resp.ServedDegraded != "" || resp.Result.Degraded
					err = check(j, resp)
				}
				if err != nil {
					s.failed = true
					logf("request %s failed: %v", j.key, err)
				}
				perWorker[w] = append(perWorker[w], s)
			}
		}(w)
	}
	wg.Wait()
	out := &outcome{elapsed: time.Since(start), spans: rec}
	for _, s := range perWorker {
		out.samples = append(out.samples, s...)
	}
	if out.cpu, err = b.cpuTime(); err != nil {
		return nil, err
	}
	out.cpu -= cpu0
	if out.rssMB, err = b.peakRSSMB(); err != nil {
		return nil, err
	}
	after, err := b.allCounters()
	if err != nil {
		return nil, err
	}
	out.delta = map[string]int64{}
	for k, v := range after {
		out.delta[k] = v - before[k]
	}
	return out, nil
}

// logf reports a failed request or check on standard error.
func logf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// coldSearch: one client, one daemon with no store and no peers; every
// request is a distinct spec, so each pays the full search stack.
func coldSearch(b *bench) (*outcome, error) {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	specs := coldOrder(rng)

	if _, err := b.newReplica(); err != nil {
		return nil, err
	}
	setupS, err := b.setup()
	if err != nil {
		return nil, err
	}
	answers := map[string]transfusion.RunResult{}
	var order []string
	var mu sync.Mutex
	i := 0
	// One client, so next needs no lock. A search fast enough to exhaust
	// the 320 keys ends the timed phase early; throughput stays a rate.
	next := func(int) (job, bool) {
		if i == len(specs) {
			return job{}, false
		}
		s := specs[i]
		i++
		return job{key: s.CanonicalKey(), spec: s}, true
	}
	check := func(j job, resp *client.PlanResponse) error {
		if resp.Source != "search" {
			return fmt.Errorf("answered from %q, want a search", resp.Source)
		}
		mu.Lock()
		defer mu.Unlock()
		answers[j.key] = resp.Result
		order = append(order, j.key)
		return nil
	}
	out, err := b.drive(1, next, check, b.recorder())
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	if err := residency(out.delta, map[string]func(int64) bool{
		"tileseek.searches":   func(v int64) bool { return v == int64(len(out.samples)) },
		"store.hits":          isZero,
		"store.misses":        isZero,
		"store.puts":          isZero,
		"serve.peer.forwards": isZero,
	}); err != nil {
		return nil, err
	}

	// Recompute a seeded sample of answered keys in-process at
	// Parallelism 1; the daemon's answers must match bit for bit.
	byKey := map[string]transfusion.RunSpec{}
	for _, s := range specs[:i] {
		byKey[s.CanonicalKey()] = s
	}
	sampled := append([]string(nil), order...)
	rng.Shuffle(len(sampled), func(a, c int) { sampled[a], sampled[c] = sampled[c], sampled[a] })
	sampled = sampled[:min(coldCheckKeys, len(sampled))]
	list := make([]transfusion.RunSpec, len(sampled))
	for k, key := range sampled {
		list[k] = byKey[key]
	}
	ref, err := computeAll(list, false)
	if err != nil {
		return nil, err
	}
	for k, key := range sampled {
		if !bytes.Equal(resultBytes(ref[k]), resultBytes(answers[key])) {
			logf("%s: daemon answer differs from the in-process Parallelism-1 result", key)
			out.failures++
		}
	}
	if out.ratios, err = objectiveRatios(answers, byKey); err != nil {
		return nil, err
	}
	out.replay = replaySet{
		searches: []replayInput{{spec: specs[0]}, {spec: specs[1]}},
		stored:   answers,
		specs:    byKey,
		members:  []string{b.replicas[0].url},
	}
	return out, nil
}

// hotTiers: two clients against two replicas in one ring. Each replica's
// store holds the keys it owns and its memory cache is smaller than the key
// set, so answers come from the memory, disk and peer tiers only.
func hotTiers(b *bench) (*outcome, error) {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	all := powerOfTwoSpecs(hotBudget)
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	specs := all[:hotKeys]
	ref, err := computeAll(specs, false)
	if err != nil {
		return nil, err
	}
	want := map[string][]byte{}
	wantRes := map[string]transfusion.RunResult{}
	byKey := map[string]transfusion.RunSpec{}
	stored := map[string]transfusion.RunResult{}
	for i, s := range specs {
		want[s.CanonicalKey()] = resultBytes(ref[i])
		var r transfusion.RunResult
		if err := json.Unmarshal(want[s.CanonicalKey()], &r); err != nil {
			return nil, err
		}
		wantRes[s.CanonicalKey()] = r
		byKey[s.CanonicalKey()] = s
		stored[s.CanonicalKey()] = ref[i]
	}

	dirs := []string{filepath.Join(b.dir, "store-0"), filepath.Join(b.dir, "store-1")}
	var urls []string
	for range dirs {
		l, err := b.newReplica()
		if err != nil {
			return nil, err
		}
		urls = append(urls, l.url)
	}
	peers := strings.Join(urls, ",")
	for i, r := range b.replicas {
		r.args = append(r.args, "-store-dir", dirs[i], "-self", urls[i], "-peers", peers,
			"-cache-entries", fmt.Sprint(hotCacheSize))
	}
	// Seed each replica's store with the keys the ring says it owns, so a
	// replica missing a key locally fetches it from its peer.
	cl, err := cluster.New(cluster.Config{Self: urls[0], Peers: urls})
	if err != nil {
		return nil, err
	}
	for i, dir := range dirs {
		st, err := store.Open(dir, 0, nil)
		if err != nil {
			return nil, err
		}
		for k, s := range specs {
			if key := s.CanonicalKey(); cl.Owner(key) == urls[i] {
				if err := st.Put(context.Background(), key, ref[k]); err != nil {
					return nil, err
				}
			}
		}
	}
	setupS, err := b.setup()
	if err != nil {
		return nil, err
	}

	// Skewed popularity: rank r is requested with probability ~ 1/r^s; the
	// seed fixes which key holds which rank and each worker's stream.
	keys := make([]string, len(specs))
	for i, s := range specs {
		keys[i] = s.CanonicalKey()
	}
	const clients = 2
	streams := make([]*rand.Rand, clients)
	zipfs := make([]*rand.Zipf, clients)
	for w := range streams {
		streams[w] = rand.New(rand.NewSource(b.cfg.seed*1000003 + int64(w)))
		zipfs[w] = rand.NewZipf(streams[w], hotZipfS, 1, uint64(len(keys)-1))
	}
	next := func(w int) (job, bool) {
		key := keys[zipfs[w].Uint64()]
		return job{key: key, spec: byKey[key], replica: streams[w].Intn(len(b.replicas))}, true
	}
	var mu sync.Mutex
	answers := map[string]transfusion.RunResult{}
	check := func(j job, resp *client.PlanResponse) error {
		switch resp.Source {
		case "memory", "disk", "peer":
		default:
			return fmt.Errorf("answered from %q, want memory, disk or peer", resp.Source)
		}
		// Comparing against the reference as decoded from its own JSON is
		// cheap and, when equal, implies equal bytes; only a mismatch pays
		// for re-encoding, so the check adds little CPU under the daemons.
		if !reflect.DeepEqual(resp.Result, wantRes[j.key]) && !bytes.Equal(resultBytes(resp.Result), want[j.key]) {
			return fmt.Errorf("answer differs from the plan computed before timing")
		}
		mu.Lock()
		answers[j.key] = stored[j.key]
		mu.Unlock()
		return nil
	}
	out, err := b.drive(clients, next, check, b.recorder())
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	if err := residency(out.delta, map[string]func(int64) bool{
		"tileseek.searches": isZero,
	}); err != nil {
		return nil, err
	}
	if out.ratios, err = objectiveRatios(answers, byKey); err != nil {
		return nil, err
	}
	out.replay = replaySet{
		searches: []replayInput{{spec: specs[0]}, {spec: specs[1]}},
		stored:   stored,
		specs:    byKey,
		members:  urls,
	}
	return out, nil
}

// nearMissFill: two clients against one daemon whose store holds a coarse
// seq_len grid for a few plan families. Requests ask for the gaps (warm
// searches seeded from the nearest stored plan, each persisted) and a seeded
// share repeat earlier keys.
func nearMissFill(b *bench) (*outcome, error) {
	rng := rand.New(rand.NewSource(b.cfg.seed))
	// Gaps are requested round-robin over the families, each family's gaps
	// in seeded order, so every run completes the same family mix.
	var grid, gaps []transfusion.RunSpec
	perFamily := make([][]transfusion.RunSpec, len(nearFamilies))
	for i, f := range nearFamilies {
		for k := 1; k <= nearSeqUnits; k++ {
			s := newSpec(f.arch, f.model, k*nearSeqUnit, f.causal, nearBudget)
			if k == nearGrid[0] || k == nearGrid[1] {
				grid = append(grid, s)
			} else {
				perFamily[i] = append(perFamily[i], s)
			}
		}
		rng.Shuffle(len(perFamily[i]), func(a, c int) { perFamily[i][a], perFamily[i][c] = perFamily[i][c], perFamily[i][a] })
	}
	for k := range perFamily[0] {
		for i := range perFamily {
			gaps = append(gaps, perFamily[i][k])
		}
	}
	gridRes, err := computeAll(grid, false)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(b.dir, "store-0")
	st, err := store.Open(dir, 0, nil)
	if err != nil {
		return nil, err
	}
	known := map[string]transfusion.RunResult{}
	byKey := map[string]transfusion.RunSpec{}
	for i, s := range grid {
		if err := st.Put(context.Background(), s.CanonicalKey(), gridRes[i]); err != nil {
			return nil, err
		}
		known[s.CanonicalKey()] = gridRes[i]
		byKey[s.CanonicalKey()] = s
	}
	for _, s := range gaps {
		byKey[s.CanonicalKey()] = s
	}

	// The request sequence: gaps in seeded order, with every
	// nearRepeatEvery-th request repeating a seeded earlier gap. The fixed
	// share keeps the mix of cheap repeats and warm searches the same for
	// every seed.
	var jobs []job
	var emitted []transfusion.RunSpec
	for g := 0; len(jobs) < nearJobsToDraw; {
		var s transfusion.RunSpec
		if len(jobs)%nearRepeatEvery == nearRepeatEvery-1 || g == len(gaps) {
			s = emitted[rng.Intn(len(emitted))]
		} else {
			s = gaps[g]
			g++
			emitted = append(emitted, s)
		}
		jobs = append(jobs, job{key: s.CanonicalKey(), spec: s})
	}

	if _, err := b.newReplica("-store-dir", dir); err != nil {
		return nil, err
	}
	setupS, err := b.setup()
	if err != nil {
		return nil, err
	}
	var pos atomic.Int64
	next := func(int) (job, bool) { return jobs[int(pos.Add(1)-1)%len(jobs)], true }
	type warmAnswer struct {
		key, hint string
	}
	var mu sync.Mutex
	first := map[string][]byte{}
	answers := map[string]transfusion.RunResult{}
	var warm []warmAnswer
	check := func(j job, resp *client.PlanResponse) error {
		got := resultBytes(resp.Result)
		var hint string
		if resp.Source == "warm-search" {
			h, err := b.warmFrom(context.Background(), b.replicas[0], resp.TraceID)
			if err != nil {
				return fmt.Errorf("reading the warm hint: %w", err)
			}
			if h == "" {
				return fmt.Errorf("warm-search answer without a warm_from hint")
			}
			hint = h
		}
		mu.Lock()
		defer mu.Unlock()
		if prev, ok := first[j.key]; ok {
			if !bytes.Equal(prev, got) {
				return fmt.Errorf("repeat differs from the key's first answer")
			}
			return nil
		}
		first[j.key] = got
		answers[j.key] = resp.Result
		if hint != "" {
			warm = append(warm, warmAnswer{j.key, hint})
		}
		return nil
	}
	out, err := b.drive(2, next, check, b.recorder())
	if err != nil {
		return nil, err
	}
	out.setupS = setupS
	if err := residency(out.delta, map[string]func(int64) bool{
		"serve.warm_hits": isPositive,
		"store.puts":      isPositive,
	}); err != nil {
		return nil, err
	}

	// Every warm answer must be no worse than its hint's tile evaluated on
	// the requested workload — the incumbent the warm search started from.
	for k, v := range answers {
		known[k] = v
	}
	var failures atomic.Int64
	forEach(len(warm), func(i int) {
		wa := warm[i]
		hint, ok := known[wa.hint]
		if !ok || hint.Plan == nil {
			logf("%s: warm hint %s is not a plan this run stored", wa.key, wa.hint)
			failures.Add(1)
			return
		}
		cost, ok, err := tileObjective(byKey[wa.key], hint.Plan)
		if err != nil {
			logf("%s: %v", wa.key, err)
			failures.Add(1)
			return
		}
		if ok && edp(answers[wa.key]) > cost*(1+1e-9) {
			logf("%s: warm answer EDP %g worse than its hint's %g", wa.key, edp(answers[wa.key]), cost)
			failures.Add(1)
		}
	})
	out.failures = int(failures.Load())
	if out.ratios, err = objectiveRatios(answers, byKey); err != nil {
		return nil, err
	}
	replay := []replayInput{}
	for _, s := range gaps[:2] {
		replay = append(replay, replayInput{spec: s, hint: nearestGrid(s, grid, gridRes)})
	}
	out.replay = replaySet{searches: replay, stored: known, specs: byKey, members: []string{b.replicas[0].url}}
	return out, nil
}

// nearestGrid is the grid plan a warm search for s would start from before
// any gap is filled: same family, nearest seq_len, ties to the smaller.
func nearestGrid(s transfusion.RunSpec, grid []transfusion.RunSpec, res []transfusion.RunResult) *transfusion.PlanSummary {
	var best *transfusion.PlanSummary
	bestD := -1
	for i, g := range grid {
		if g.Arch != s.Arch || g.Model != s.Model || g.Causal != s.Causal {
			continue
		}
		d := g.SeqLen - s.SeqLen
		if d < 0 {
			d = -d
		}
		if bestD < 0 || d < bestD {
			best, bestD = res[i].Plan, d
		}
	}
	return best
}

// resolved is a spec's inputs to the internal packages.
type resolved struct {
	arch arch.Spec
	sys  pipeline.System
	w    pipeline.Workload
}

func resolve(s transfusion.RunSpec) (resolved, error) {
	a, err := arch.ByName(s.Arch)
	if err != nil {
		return resolved{}, err
	}
	m, err := model.ByName(s.Model)
	if err != nil {
		return resolved{}, err
	}
	sys, err := pipeline.SystemByName(s.System)
	if err != nil {
		return resolved{}, err
	}
	return resolved{arch: a, sys: sys, w: pipeline.Workload{Model: m, SeqLen: s.SeqLen, Batch: model.EvalBatch, Causal: s.Causal}}, nil
}

func tileOf(p *transfusion.PlanSummary) tiling.Config {
	return tiling.Config{B: p.TileB, D: p.TileD, P: p.TileP, M0: p.TileM0, M1: p.TileM1, S: p.TileS}
}

// tileObjective evaluates the hint's tile on s's workload. ok is false when
// the search would reject the hint (a value outside the space, or over the
// buffer), in which case the warm search ran cold and there is no bound.
func tileObjective(s transfusion.RunSpec, hint *transfusion.PlanSummary) (float64, bool, error) {
	r, err := resolve(s)
	if err != nil {
		return 0, false, err
	}
	tile := tileOf(hint)
	space := tileseek.DefaultSpace(r.w, r.arch)
	in := slices.Contains[[]int]
	if !in(space.Bs, tile.B) || !in(space.Ds, tile.D) || !in(space.Ps, tile.P) ||
		!in(space.M0s, tile.M0) || !in(space.M1s, tile.M1) || !in(space.Ss, tile.S) ||
		!tiling.Feasible(tile, r.w, r.arch) {
		return 0, false, nil
	}
	opts := pipeline.DefaultOptions()
	opts.Parallelism = 1
	res, err := pipeline.EvaluateWithTile(r.w, r.arch, r.sys, tile, opts)
	if err != nil {
		return 0, false, nil
	}
	return res.TotalCycles * res.Energy.Total(), true, nil
}

func isZero(v int64) bool     { return v == 0 }
func isPositive(v int64) bool { return v > 0 }

// residency checks /metrics deltas that prove the workload stayed on its
// layers; a run that strays fails instead of reporting numbers.
func residency(delta map[string]int64, want map[string]func(int64) bool) error {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	var bad []string
	for _, n := range names {
		if !want[n](delta[n]) {
			bad = append(bad, fmt.Sprintf("%s=%d", n, delta[n]))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("layer residency check failed: %s", strings.Join(bad, ", "))
	}
	return nil
}
