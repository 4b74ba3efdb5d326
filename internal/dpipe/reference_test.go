package dpipe

// The map-keyed Eqs. 43–46 DP that the compiled core replaced, kept
// verbatim as a differential oracle: refEvaluate, refSchedule and
// refBuildSequence are the string-keyed evaluate, schedule and
// buildSequence the planner ran before problems were lowered to dense op
// ids. TestCompiledMatchesReference (and, through the exported hooks below,
// the sub-layer sweep in the external test package) requires the compiled
// evaluate to reproduce their totals, busy times, assignments and DP cell
// counts bit for bit.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
)

// refEvaluate runs the Eq. 43–46 DP over explicitEpochs epochs and
// extrapolates to p.Epochs. first, when non-nil, is the bipartition's first
// subgraph: the refInstance sequence then interleaves the second subgraph of
// epoch k-1 with the first subgraph of epoch k (Figure 7(d)); a nil first
// yields plain epoch-major sequencing. When fixedAssign is non-nil each op
// is pinned to its assigned array; otherwise the DP chooses per Eq. 45.
// cells, when non-nil, counts DP refInstance placements.
//
// bound, when finite, is a warm-start incumbent total: the sweeps abort
// with +Inf as soon as a sound lower bound of this candidate's final
// extrapolated total exceeds it (see sweepBound). An infinite bound runs
// the exact historical cold path — same sweeps, same order, same upfront
// cell accounting.
func refEvaluate(p *Problem, spec arch.Spec, order []string, first map[string]bool, explicitEpochs int, fixedAssign map[string]perf.ArrayKind, cells *obs.Counter, bound float64) Result {
	k := explicitEpochs
	if int64(k) > p.Epochs {
		k = int(p.Epochs)
	}
	if k < 1 {
		k = 1
	}
	warm := !math.IsInf(bound, 1)

	if int64(k) >= p.Epochs {
		// All epochs explicit: the makespan is the total, so the incumbent
		// bounds the sweep directly (scale 0 = no extrapolation term).
		var sb *sweepBound
		if warm {
			sb = &sweepBound{limit: bound}
		}
		mkAll, busyAll, assign := refSchedule(p, spec, refBuildSequence(order, first, k), fixedAssign, cells, sb)
		return Result{
			TotalCycles: mkAll,
			Busy1D:      busyAll[perf.PE1D],
			Busy2D:      busyAll[perf.PE2D],
			Assignment:  assign,
		}
	}

	// Steady-state extrapolation: average the per-epoch increment over the
	// second half of the explicit window, which smooths periodic placement
	// patterns (e.g. every fifth GEMM spilling to the 1D array).
	base := k / 2
	if base < 1 {
		base = 1
	}
	span := float64(k - base)
	rest := float64(p.Epochs - int64(k))

	if !warm {
		mkAll, busyAll, assign := refSchedule(p, spec, refBuildSequence(order, first, k), fixedAssign, cells, nil)
		mkBase, busyBase, _ := refSchedule(p, spec, refBuildSequence(order, first, base), fixedAssign, cells, nil)
		deltaMk := (mkAll - mkBase) / span
		delta1 := (busyAll[perf.PE1D] - busyBase[perf.PE1D]) / span
		delta2 := (busyAll[perf.PE2D] - busyBase[perf.PE2D]) / span
		return Result{
			TotalCycles: mkAll + deltaMk*rest,
			Busy1D:      busyAll[perf.PE1D] + delta1*rest,
			Busy2D:      busyAll[perf.PE2D] + delta2*rest,
			Assignment:  assign,
		}
	}

	if len(first) == 0 {
		// Epoch-major sequences nest: the base window is a strict prefix of
		// the full sequence and the DP is a deterministic left-to-right
		// recurrence, so one bounded sweep with a checkpoint at the base
		// boundary recovers bit-identical (mkBase, busyBase) values to the
		// cold path's separate base sweep — at two thirds of its cells, plus
		// whatever the bound aborts.
		sb := &sweepBound{limit: bound, scale: rest / span, checkpoint: base * len(order)}
		mkAll, busyAll, assign := refSchedule(p, spec, refBuildSequence(order, nil, k), fixedAssign, cells, sb)
		if math.IsInf(mkAll, 1) {
			return Result{TotalCycles: math.Inf(1), Busy1D: busyAll[perf.PE1D], Busy2D: busyAll[perf.PE2D], Assignment: assign}
		}
		deltaMk := (mkAll - sb.ckMk) / span
		delta1 := (busyAll[perf.PE1D] - sb.ckBusy1) / span
		delta2 := (busyAll[perf.PE2D] - sb.ckBusy2) / span
		return Result{
			TotalCycles: mkAll + deltaMk*rest,
			Busy1D:      busyAll[perf.PE1D] + delta1*rest,
			Busy2D:      busyAll[perf.PE2D] + delta2*rest,
			Assignment:  assign,
		}
	}

	// Bipartition sequences do not nest (the base window interleaves
	// differently), and greedy list-scheduling anomalies mean mkAll >= mkBase
	// is unproven — so the base sweep runs unbounded, exactly as cold, and
	// only the full sweep gets the slope-aware bound seeded with the exact
	// mkBase.
	mkBase, busyBase, _ := refSchedule(p, spec, refBuildSequence(order, first, base), fixedAssign, cells, nil)
	if math.IsInf(mkBase, 1) {
		// The order violates a dependency; the full sweep would be +Inf too.
		// Return a clean +Inf rather than extrapolating Inf-Inf into NaN.
		return Result{TotalCycles: math.Inf(1), Busy1D: busyBase[perf.PE1D], Busy2D: busyBase[perf.PE2D]}
	}
	sb := &sweepBound{limit: bound, mkBase: mkBase, scale: rest / span}
	mkAll, busyAll, assign := refSchedule(p, spec, refBuildSequence(order, first, k), fixedAssign, cells, sb)
	if math.IsInf(mkAll, 1) {
		return Result{TotalCycles: math.Inf(1), Busy1D: busyAll[perf.PE1D], Busy2D: busyAll[perf.PE2D], Assignment: assign}
	}
	deltaMk := (mkAll - mkBase) / span
	delta1 := (busyAll[perf.PE1D] - busyBase[perf.PE1D]) / span
	delta2 := (busyAll[perf.PE2D] - busyBase[perf.PE2D]) / span
	return Result{
		TotalCycles: mkAll + deltaMk*rest,
		Busy1D:      busyAll[perf.PE1D] + delta1*rest,
		Busy2D:      busyAll[perf.PE2D] + delta2*rest,
		Assignment:  assign,
	}
}

// refBuildSequence constructs the global instance processing sequence for the
// DP. Without a bipartition the sequence is epoch-major. With a bipartition
// (S1 = first, S2 = the rest) the sequence realises Figure 7(d)'s pipeline:
// pass k interleaves epoch k's S1 instances with epoch k-1's S2 instances,
// following the candidate order's relative positions, with a trailing drain
// pass for the final epoch's S2. Dependency safety follows from the
// bipartition's dependency completeness (no S2 -> S1 edges): every
// refInstance's predecessors appear earlier in the sequence.
func refBuildSequence(order []string, first map[string]bool, epochs int) []refInstance {
	if first == nil || len(first) == 0 {
		seq := make([]refInstance, 0, len(order)*epochs)
		for k := 0; k < epochs; k++ {
			for _, name := range order {
				seq = append(seq, refInstance{name, k})
			}
		}
		return seq
	}
	seq := make([]refInstance, 0, len(order)*(epochs+1))
	for k := 0; k <= epochs; k++ {
		for _, name := range order {
			if first[name] && k < epochs {
				seq = append(seq, refInstance{name, k})
			}
			if !first[name] && k > 0 {
				seq = append(seq, refInstance{name, k - 1})
			}
		}
	}
	return seq
}

// refInstance identifies one op execution in one epoch.
type refInstance struct {
	name  string
	epoch int
}

// refSchedule is the core DP (Eqs. 43–46): process op instances epoch-major in
// the candidate order; for each, pick the array minimising completion time
// given (a) the array's accumulated occupancy Time[pe_j] (Eq. 43 first
// term) and (b) the latest finishing dependency (Eq. 43 second term).
// Eq. 44 adds the op latency per array, Eq. 45 selects the earliest
// completion, and Eq. 46 commits the chosen array's timeline. Returns the
// makespan, per-array busy cycles, and the last epoch's array assignment.
// cells is credited with one increment per instance placed (nil-safe; on a
// cold sweep a single upfront Add covering the whole sequence, so the inner
// loop stays allocation-free; on a bounded sweep the instances actually
// placed, credited when the sweep ends or aborts).
//
// sb, when non-nil, arms the warm-start abort (see sweepBound): the sweep
// returns +Inf as soon as the candidate provably cannot beat sb.limit. A
// nil sb is the exact historical sweep.
func refSchedule(p *Problem, spec arch.Spec, seq []refInstance, fixedAssign map[string]perf.ArrayKind, cells *obs.Counter, sb *sweepBound) (float64, map[perf.ArrayKind]float64, map[string]perf.ArrayKind) {
	if sb == nil {
		cells.Add(int64(len(seq)))
	}
	timeline := map[perf.ArrayKind]float64{perf.PE2D: 0, perf.PE1D: 0}
	busy := map[perf.ArrayKind]float64{perf.PE2D: 0, perf.PE1D: 0}
	endT := make(map[refInstance]float64, len(seq))
	assign := make(map[string]perf.ArrayKind, len(p.Ops))
	makespan := 0.0

	for i, inst := range seq {
		name, epoch := inst.name, inst.epoch
		op := p.Ops[name]
		// Latest dependency completion: intra-epoch predecessors plus
		// cross-epoch state edges from the previous epoch. A predecessor
		// refInstance that has not been scheduled yet means the candidate
		// sequence violates a dependency (possible when a state producer
		// lands in the second subgraph while its consumer sits in the
		// first); such sequences are rejected with an infinite makespan.
		depEnd := 0.0
		for _, pred := range p.Deps.Pred(name) {
			e, ok := endT[refInstance{pred, epoch}]
			if !ok {
				if sb != nil {
					cells.Add(int64(i + 1))
				}
				return math.Inf(1), busy, assign
			}
			if e > depEnd {
				depEnd = e
			}
		}
		if epoch > 0 {
			for _, se := range p.StateEdges {
				if se.To != name {
					continue
				}
				e, ok := endT[refInstance{se.From, epoch - 1}]
				if !ok {
					if sb != nil {
						cells.Add(int64(i + 1))
					}
					return math.Inf(1), busy, assign
				}
				if e > depEnd {
					depEnd = e
				}
			}
		}

		arrays := []perf.ArrayKind{perf.PE2D, perf.PE1D}
		if fixedAssign != nil {
			arrays = []perf.ArrayKind{fixedAssign[name]}
		}
		bestEnd := math.Inf(1)
		var bestArr perf.ArrayKind
		var bestCycles float64
		for _, arr := range arrays {
			cyc := op.Cycles(spec, arr)
			start := math.Max(timeline[arr], depEnd) // Eq. 43
			end := start + cyc                       // Eq. 44
			if end < bestEnd {                       // Eq. 45
				bestEnd, bestArr, bestCycles = end, arr, cyc
			}
		}
		timeline[bestArr] = bestEnd // Eq. 46
		busy[bestArr] += bestCycles
		endT[inst] = bestEnd
		assign[name] = bestArr
		if bestEnd > makespan {
			makespan = bestEnd
		}

		if sb != nil {
			if i+1 == sb.checkpoint {
				sb.ckMk = makespan
				sb.ckBusy1 = busy[perf.PE1D]
				sb.ckBusy2 = busy[perf.PE2D]
			}
			// Lower-bound the final extrapolated total (see sweepBound's
			// soundness note) and abort once it clears the incumbent.
			lb := makespan
			if sb.scale > 0 && (sb.checkpoint == 0 || i+1 > sb.checkpoint) {
				mb := sb.mkBase
				if sb.checkpoint > 0 {
					mb = sb.ckMk
				}
				lb = makespan + (makespan-mb)*sb.scale
			}
			if lb > sb.limit {
				cells.Add(int64(i + 1))
				return math.Inf(1), busy, assign
			}
		}
	}
	if sb != nil {
		cells.Add(int64(len(seq)))
	}
	return makespan, busy, assign
}

// evaluateResult runs the compiled evaluate on one candidate and packages
// it as the Result the reference returns.
func evaluateResult(p *Problem, spec arch.Spec, order []string, first map[string]bool, explicitEpochs int, fixedAssign map[string]perf.ArrayKind, cells *obs.Counter, bound float64) Result {
	c, err := compile(p, spec, fixedAssign)
	if err != nil {
		panic(err)
	}
	ids, err := c.ids(order)
	if err != nil {
		panic(err)
	}
	w := newWorkspace(c, c.window(explicitEpochs))
	out := c.evaluate(w, ids, c.firstSet(first), explicitEpochs, cells, bound)
	return Result{
		TotalCycles: out.total,
		Busy1D:      out.busy[perf.PE1D],
		Busy2D:      out.busy[perf.PE2D],
		Assignment:  c.assignment(w.assign),
	}
}

// sameFloat is bit-for-bit equality, with every NaN equal to every other.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// CheckCompiledAgainstReference evaluates every candidate of the problem's
// frontier under opts — plus the hints in opts.WarmHints — with both the
// compiled core and the map-keyed reference, once cold and once under each
// of the given finite warm bounds, and reports the first disagreement in
// total, busy time, DP cells or (wherever the reference returns one)
// assignment. It returns the number of evaluations compared.
func CheckCompiledAgainstReference(p *Problem, spec arch.Spec, opts Options, bounds ...float64) (int, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	c, err := compile(p, spec, nil)
	if err != nil {
		return 0, err
	}
	f, err := buildFrontier(context.Background(), p, c, opts, nil)
	if err != nil {
		return 0, err
	}
	list, _ := withHints(c, f, opts.WarmHints, nil)
	w := newWorkspace(c, c.window(opts.ExplicitEpochs))
	compared := 0
	for _, bound := range append([]float64{math.Inf(1)}, bounds...) {
		for _, cand := range list {
			gotCells, wantCells := obs.NewRegistry().Counter("c"), obs.NewRegistry().Counter("c")
			out := c.evaluate(w, cand.ids, cand.first, opts.ExplicitEpochs, gotCells, bound)
			want := refEvaluate(p, spec, cand.order, cand.part.First, opts.ExplicitEpochs, nil, wantCells, bound)
			where := fmt.Sprintf("%s bound=%v candidate %q", p.Name, bound, cand.key)
			switch {
			case !sameFloat(out.total, want.TotalCycles):
				return compared, fmt.Errorf("%s: total %v, reference %v", where, out.total, want.TotalCycles)
			case !sameFloat(out.busy[perf.PE1D], want.Busy1D) || !sameFloat(out.busy[perf.PE2D], want.Busy2D):
				return compared, fmt.Errorf("%s: busy (%v, %v), reference (%v, %v)",
					where, out.busy[perf.PE1D], out.busy[perf.PE2D], want.Busy1D, want.Busy2D)
			case gotCells.Value() != wantCells.Value():
				return compared, fmt.Errorf("%s: %d DP cells, reference %d", where, gotCells.Value(), wantCells.Value())
			}
			if want.Assignment != nil {
				got := c.assignment(w.assign)
				if fmt.Sprint(got) != fmt.Sprint(want.Assignment) {
					return compared, fmt.Errorf("%s: assignment %v, reference %v", where, got, want.Assignment)
				}
			}
			compared++
		}
	}
	return compared, nil
}

// TestCompiledMatchesReference runs the differential check on the in-package
// problems: the attention cascade and the two-stage pipeline in both the
// exact and the extrapolated regimes, and seeded random DAGs with state
// edges. Hints that break the DAG (the reversed canonical order, alone and
// with a bipartition) drive the +Inf and Inf-Inf paths. Each problem runs
// cold and under two finite warm bounds: the winning total with the
// planner's slack, and a looser one that lets some candidates finish.
func TestCompiledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	problems := []*Problem{mhaProblem(t, 4), mhaProblem(t, 64), twoStageProblem(3), twoStageProblem(400)}
	for i := 0; i < 80; i++ {
		p := randomProblem(rng, i)
		if i%2 == 0 {
			p.Epochs = int64(13 + rng.Intn(60))
		}
		problems = append(problems, p)
	}
	compared := 0
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge()} {
		for _, p := range problems {
			opts := DefaultOptions()
			canonical, err := p.Deps.TopoSort()
			if err != nil {
				t.Fatal(err)
			}
			reversed := make([]string, len(canonical))
			for i, n := range canonical {
				reversed[len(canonical)-1-i] = n
			}
			opts.WarmHints = []Hint{{Order: reversed}, {Order: reversed, First: canonical[:1]}}
			cold, err := Plan(p, spec, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			n, err := CheckCompiledAgainstReference(p, spec, opts, cold.TotalCycles*(1+1e-9), cold.TotalCycles*1.05)
			if err != nil {
				t.Fatalf("%s on %s: %v", p.Name, spec.Name, err)
			}
			compared += n
		}
	}
	t.Logf("%d candidate evaluations bit-identical to the reference", compared)
}

// TestStaticPipelinedAndTraceMatchReference pins the two other entry points
// of the compiled core: StaticPipelined against the reference with a fixed
// assignment, and TraceSchedule's makespan and per-placement assignment
// against the reference's exact sweep.
func TestStaticPipelinedAndTraceMatchReference(t *testing.T) {
	for _, spec := range []arch.Spec{arch.Cloud(), arch.Edge()} {
		for _, p := range []*Problem{mhaProblem(t, 4), mhaProblem(t, 64), twoStageProblem(400)} {
			order, err := p.Deps.TopoSort()
			if err != nil {
				t.Fatal(err)
			}
			assign := FuseMaxAssignment(p, spec)
			got, err := StaticPipelined(p, spec, assign)
			if err != nil {
				t.Fatal(err)
			}
			want := refEvaluate(p, spec, order, nil, 12, assign, nil, math.Inf(1))
			if !sameFloat(got.TotalCycles, want.TotalCycles) || !sameFloat(got.Busy1D, want.Busy1D) ||
				!sameFloat(got.Busy2D, want.Busy2D) || !reflect.DeepEqual(got.Assignment, want.Assignment) {
				t.Fatalf("%s on %s: StaticPipelined %+v, reference %+v", p.Name, spec.Name, got, want)
			}

			plan, err := Plan(p, spec, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			tr, err := TraceSchedule(p, spec, plan.Order, plan.Bipartition.First, 6, nil)
			if err != nil {
				t.Fatal(err)
			}
			mk, _, refAssign := refSchedule(p, spec, refBuildSequence(plan.Order, plan.Bipartition.First, 6), nil, nil, nil)
			if !sameFloat(tr.Makespan, mk) {
				t.Fatalf("%s on %s: trace makespan %v, reference %v", p.Name, spec.Name, tr.Makespan, mk)
			}
			last := map[string]TraceEntry{}
			for _, e := range tr.Entries {
				if prev, ok := last[e.Op]; !ok || e.Epoch > prev.Epoch {
					last[e.Op] = e
				}
			}
			for op, arr := range refAssign {
				if last[op].Array != arr {
					t.Fatalf("%s on %s: trace places %s's last instance on %v, reference %v", p.Name, spec.Name, op, last[op].Array, arr)
				}
			}
		}
	}
}
