package dpipe

import (
	"fmt"
	"math"

	"github.com/fusedmindlab/transfusion/internal/arch"
	"github.com/fusedmindlab/transfusion/internal/obs"
	"github.com/fusedmindlab/transfusion/internal/perf"
)

// compiled is a Problem lowered to dense op ids for the Eqs. 43–46 DP. Op id
// i names the i-th op in sorted order (for a validated problem, also the
// i-th node of Deps.Nodes), and everything the DP looks up per cell — the
// op's latency on each array, its predecessors, its state producers — is a
// slice index rather than a string-keyed map probe or a fresh
// OpSpec.Cycles call.
type compiled struct {
	p     *Problem
	names []string         // op id -> name
	id    map[string]int32 // name -> op id
	// cycles[op][arr] is OpSpec.Cycles(spec, arr), arr indexed by
	// perf.ArrayKind; computed once per compile, so bit-identical to calling
	// Cycles in the DP.
	cycles [][2]float64
	// pred[op] are the op's intra-epoch predecessors (Deps.Pred order);
	// stateFrom[op] the producers, in the previous epoch, of the state edges
	// ending at op (StateEdges order).
	pred      [][]int32
	stateFrom [][]int32
	// fixed, when non-nil, pins each op to one array (StaticPipelined and
	// pinned traces); nil lets the DP choose per Eq. 45.
	fixed []perf.ArrayKind
}

// compile lowers a validated problem. fixedAssign, when non-nil, pins each
// op to its array; an op it omits is pinned to the 2D array, and an array
// outside {PE2D, PE1D} is an error.
func compile(p *Problem, spec arch.Spec, fixedAssign map[string]perf.ArrayKind) (*compiled, error) {
	names := sortedOpNames(p)
	n := len(names)
	c := &compiled{
		p:         p,
		names:     names,
		id:        make(map[string]int32, n),
		cycles:    make([][2]float64, n),
		pred:      make([][]int32, n),
		stateFrom: make([][]int32, n),
	}
	for i, name := range names {
		c.id[name] = int32(i)
	}
	for i, name := range names {
		op := p.Ops[name]
		c.cycles[i] = [2]float64{perf.PE2D: op.Cycles(spec, perf.PE2D), perf.PE1D: op.Cycles(spec, perf.PE1D)}
		for _, q := range p.Deps.Pred(name) {
			c.pred[i] = append(c.pred[i], c.id[q])
		}
	}
	for _, se := range p.StateEdges {
		to := c.id[se.To]
		c.stateFrom[to] = append(c.stateFrom[to], c.id[se.From])
	}
	if fixedAssign != nil {
		c.fixed = make([]perf.ArrayKind, n)
		for i, name := range names {
			arr := fixedAssign[name]
			if arr != perf.PE2D && arr != perf.PE1D {
				return nil, fmt.Errorf("dpipe: problem %s: op %q pinned to unknown array %d", p.Name, name, int(arr))
			}
			c.fixed[i] = arr
		}
	}
	return c, nil
}

// ids maps an order of op names to op ids.
func (c *compiled) ids(order []string) ([]int32, error) {
	out := make([]int32, len(order))
	for i, name := range order {
		id, ok := c.id[name]
		if !ok {
			return nil, fmt.Errorf("dpipe: problem %s: order names unknown op %q", c.p.Name, name)
		}
		out[i] = id
	}
	return out, nil
}

// firstSet maps a bipartition's first subgraph to a per-op-id membership
// slice; nil (epoch-major sequencing) when no op is in it.
func (c *compiled) firstSet(first map[string]bool) []bool {
	var out []bool
	for name, in := range first {
		id, ok := c.id[name]
		if !in || !ok {
			continue
		}
		if out == nil {
			out = make([]bool, len(c.names))
		}
		out[id] = true
	}
	return out
}

// window is the number of epochs evaluate sweeps explicitly.
func (c *compiled) window(explicitEpochs int) int {
	k := explicitEpochs
	if int64(k) > c.p.Epochs {
		k = int(c.p.Epochs)
	}
	if k < 1 {
		k = 1
	}
	return k
}

// assignment converts a per-op-id assignment into the Result map, skipping
// ops the sweep never placed.
func (c *compiled) assignment(assign []perf.ArrayKind) map[string]perf.ArrayKind {
	out := make(map[string]perf.ArrayKind, len(assign))
	for id, arr := range assign {
		if arr != unplaced {
			out[c.names[id]] = arr
		}
	}
	return out
}

// unplaced marks an op the current sweep has not placed yet.
const unplaced perf.ArrayKind = -1

// workspace is one worker's reusable DP state: sized once per plan, reset by
// each sweep, so the DP itself allocates nothing.
type workspace struct {
	// endT[epoch*nOps+op] is the completion time of op in epoch; negative
	// while that instance is unscheduled.
	endT []float64
	// assign[op] is the array of op's most recently placed instance.
	assign []perf.ArrayKind
	// trace, when non-nil, receives every placement (TraceSchedule).
	trace *Trace
	// viol describes the dependency that made the last sweep return +Inf.
	viol violation

	// The worker's best candidate so far under the (total, key) order, and
	// the assignment its sweep left.
	best       int // candidate index; -1 = none
	bestOut    evalOut
	bestAssign []perf.ArrayKind
}

// violation is an instance whose dependency was unscheduled when the
// sequence reached it.
type violation struct {
	op, dep         int32
	epoch, depEpoch int
	state, happened bool
}

func newWorkspace(c *compiled, epochs int) *workspace {
	n := len(c.names)
	return &workspace{
		endT:       make([]float64, epochs*n),
		assign:     make([]perf.ArrayKind, n),
		best:       -1,
		bestAssign: make([]perf.ArrayKind, n),
	}
}

// evalOut is one candidate's extrapolated schedule.
type evalOut struct {
	total float64
	busy  [2]float64 // indexed by perf.ArrayKind
}

// keep records candidate i as this worker's best when it beats the current
// one: minimum total, ties broken by the candidate key. Keys are unique, so
// this is a strict total order and the minimum over any split of the
// candidates across workers is the same candidate. Unschedulable results —
// pruned sweeps (+Inf) and dependency-violating hints extrapolated into NaN —
// never win.
func (w *workspace) keep(i int, out evalOut, list []candidate) {
	t := out.total
	if math.IsInf(t, 1) || math.IsNaN(t) {
		return
	}
	if w.best >= 0 && !beats(out, list[i].key, w.bestOut, list[w.best].key) {
		return
	}
	w.best, w.bestOut = i, out
	copy(w.bestAssign, w.assign)
}

func beats(a evalOut, aKey string, b evalOut, bKey string) bool {
	return a.total < b.total || (a.total == b.total && aKey < bKey)
}

// evaluate runs the Eq. 43–46 DP over the candidate (order, first) for
// window(explicitEpochs) epochs and extrapolates to the problem's epoch
// count. first, when non-nil, is the bipartition's first subgraph: the
// instance sequence then interleaves the second subgraph of epoch k-1 with
// the first subgraph of epoch k (Figure 7(d)); nil yields plain epoch-major
// sequencing. cells, when non-nil, counts DP instance placements. On return
// w.assign holds the full-window sweep's assignment.
//
// bound, when finite, is a warm-start incumbent total: the sweeps abort
// with +Inf as soon as a sound lower bound of this candidate's final
// extrapolated total exceeds it (see sweepBound). An infinite bound runs
// the exact cold path — the same sweeps and the same upfront cell
// accounting.
func (c *compiled) evaluate(w *workspace, order []int32, first []bool, explicitEpochs int, cells *obs.Counter, bound float64) evalOut {
	k := c.window(explicitEpochs)
	warm := !math.IsInf(bound, 1)

	if int64(k) >= c.p.Epochs {
		// All epochs explicit: the makespan is the total, so the incumbent
		// bounds the sweep directly (scale 0 = no extrapolation term).
		sb := sweepBound{limit: bound}
		mkAll, busyAll := c.schedule(w, order, first, k, cells, warm, &sb)
		return evalOut{total: mkAll, busy: busyAll}
	}

	// Steady-state extrapolation: average the per-epoch increment over the
	// second half of the explicit window, which smooths periodic placement
	// patterns (e.g. every fifth GEMM spilling to the 1D array).
	base := k / 2
	if base < 1 {
		base = 1
	}
	span := float64(k - base)
	rest := float64(c.p.Epochs - int64(k))

	if !warm {
		// The base sweep runs first so the full sweep's assignment is the
		// one left in w.assign.
		mkBase, busyBase := c.schedule(w, order, first, base, cells, false, nil)
		mkAll, busyAll := c.schedule(w, order, first, k, cells, false, nil)
		return extrapolate(mkAll, busyAll, mkBase, busyBase, span, rest)
	}

	if first == nil {
		// Epoch-major sequences nest: the base window is a strict prefix of
		// the full sequence and the DP is a deterministic left-to-right
		// recurrence, so one bounded sweep with a checkpoint at the base
		// boundary recovers bit-identical (mkBase, busyBase) values to the
		// cold path's separate base sweep — at two thirds of its cells, plus
		// whatever the bound aborts.
		sb := sweepBound{limit: bound, scale: rest / span, checkpoint: base * len(order)}
		mkAll, busyAll := c.schedule(w, order, nil, k, cells, true, &sb)
		if math.IsInf(mkAll, 1) {
			return evalOut{total: math.Inf(1), busy: busyAll}
		}
		return extrapolate(mkAll, busyAll, sb.ckMk, [2]float64{perf.PE2D: sb.ckBusy2, perf.PE1D: sb.ckBusy1}, span, rest)
	}

	// Bipartition sequences do not nest (the base window interleaves
	// differently), and greedy list-scheduling anomalies mean mkAll >= mkBase
	// is unproven — so the base sweep runs unbounded, exactly as cold, and
	// only the full sweep gets the slope-aware bound seeded with the exact
	// mkBase.
	mkBase, busyBase := c.schedule(w, order, first, base, cells, false, nil)
	if math.IsInf(mkBase, 1) {
		// The order violates a dependency; the full sweep would be +Inf too.
		// Return a clean +Inf rather than extrapolating Inf-Inf into NaN.
		return evalOut{total: math.Inf(1), busy: busyBase}
	}
	sb := sweepBound{limit: bound, mkBase: mkBase, scale: rest / span}
	mkAll, busyAll := c.schedule(w, order, first, k, cells, true, &sb)
	if math.IsInf(mkAll, 1) {
		return evalOut{total: math.Inf(1), busy: busyAll}
	}
	return extrapolate(mkAll, busyAll, mkBase, busyBase, span, rest)
}

// extrapolate extends the full window's makespan and busy time by the
// per-epoch increment over (base, full] for the rest epochs.
func extrapolate(mkAll float64, busyAll [2]float64, mkBase float64, busyBase [2]float64, span, rest float64) evalOut {
	deltaMk := (mkAll - mkBase) / span
	delta1 := (busyAll[perf.PE1D] - busyBase[perf.PE1D]) / span
	delta2 := (busyAll[perf.PE2D] - busyBase[perf.PE2D]) / span
	var out evalOut
	out.total = mkAll + deltaMk*rest
	out.busy[perf.PE1D] = busyAll[perf.PE1D] + delta1*rest
	out.busy[perf.PE2D] = busyAll[perf.PE2D] + delta2*rest
	return out
}

// sweepBound arms one schedule sweep with a warm-start abort: the sweep
// stops, returning +Inf, as soon as lb(m) > limit, where m is the monotone
// prefix makespan and lb is a provable lower bound of the candidate's final
// extrapolated total. Soundness:
//
//   - Before the checkpoint of a nesting (epoch-major) sweep, and whenever
//     no extrapolation applies (scale 0), lb = m: the final makespan is at
//     least any prefix makespan, and the extrapolated total adds a
//     non-negative term.
//   - Past the checkpoint (or with mkBase supplied), lb = f(m) =
//     m + (m-mkBase)*scale. f is increasing in m (scale >= 0) and the final
//     total equals f(final makespan) with final makespan >= m, so
//     f(m) <= total.
//
// Because the limit carries a relative slack, a candidate whose exact total
// ties the incumbent is never aborted by rounding in f — warm pruning only
// removes candidates that are strictly worse than the hinted incumbent.
type sweepBound struct {
	limit  float64 // abort threshold (the hinted incumbent total, plus slack)
	mkBase float64 // base-window makespan for the extrapolated bound (bipartition sweeps)
	scale  float64 // rest/span extrapolation factor; 0 disables the slope term
	// checkpoint, when positive, is the instance index ending the base
	// window of a nesting sweep; the DP state there is recorded below and
	// stands in for the cold path's separate base sweep.
	checkpoint int
	ckMk       float64
	ckBusy1    float64
	ckBusy2    float64
}

// schedule is the core DP (Eqs. 43–46). It walks the instance sequence of
// (order, first) over epochs: without a bipartition the sequence is
// epoch-major; with one (S1 = first, S2 = the rest) pass k interleaves
// epoch k's S1 instances with epoch k-1's S2 instances in the order's
// relative positions, with a trailing drain pass for the final epoch's S2
// (Figure 7(d)). For each instance it picks the array minimising completion
// time given (a) the array's accumulated occupancy Time[pe_j] (Eq. 43
// first term) and (b) the latest finishing dependency (Eq. 43 second term).
// Eq. 44 adds the op latency per array, Eq. 45 selects the earliest
// completion (the 2D array on ties), and Eq. 46 commits the chosen array's
// timeline. Returns the makespan and per-array busy cycles; w.assign is
// left holding each op's last placement.
//
// A predecessor instance that has not been scheduled when its consumer is
// reached means the sequence violates a dependency (possible when a state
// producer lands in the second subgraph while its consumer sits in the
// first, or for a hinted order that breaks the DAG); the sweep then returns
// +Inf and records the violation in w.viol.
//
// cells is credited with one increment per instance placed (nil-safe): on a
// cold sweep (bounded false) a single upfront Add covering the whole
// sequence; on a bounded sweep the instances actually placed, credited when
// the sweep ends or aborts. A bounded sweep also maintains sb's checkpoint
// and returns +Inf as soon as the candidate provably cannot beat sb.limit.
func (c *compiled) schedule(w *workspace, order []int32, first []bool, epochs int, cells *obs.Counter, bounded bool, sb *sweepBound) (float64, [2]float64) {
	n := len(c.names)
	if !bounded {
		cells.Add(int64(len(order) * epochs))
	}
	endT := w.endT[:epochs*n]
	for i := range endT {
		endT[i] = -1
	}
	for i := range w.assign {
		w.assign[i] = unplaced
	}
	w.viol = violation{}
	var timeline, busy [2]float64
	makespan := 0.0

	passes := epochs
	if first != nil {
		passes = epochs + 1
	}
	i := 0 // instance index in the sequence
	for pass := 0; pass < passes; pass++ {
		for _, op := range order {
			epoch := pass
			if first != nil {
				if first[op] {
					if pass == epochs {
						continue
					}
				} else {
					if pass == 0 {
						continue
					}
					epoch = pass - 1
				}
			}

			// Latest dependency completion: intra-epoch predecessors plus
			// cross-epoch state edges from the previous epoch.
			row := epoch * n
			depEnd := 0.0
			for _, q := range c.pred[op] {
				e := endT[row+int(q)]
				if e < 0 {
					w.viol = violation{op: op, dep: q, epoch: epoch, depEpoch: epoch, happened: true}
					return abortSweep(cells, bounded, i, busy)
				}
				if e > depEnd {
					depEnd = e
				}
			}
			if epoch > 0 {
				for _, q := range c.stateFrom[op] {
					e := endT[row-n+int(q)]
					if e < 0 {
						w.viol = violation{op: op, dep: q, epoch: epoch, depEpoch: epoch - 1, state: true, happened: true}
						return abortSweep(cells, bounded, i, busy)
					}
					if e > depEnd {
						depEnd = e
					}
				}
			}

			lo, hi := perf.PE2D, perf.PE1D
			if c.fixed != nil {
				lo = c.fixed[op]
				hi = lo
			}
			bestEnd := math.Inf(1)
			var bestArr perf.ArrayKind
			var bestCycles, bestStart float64
			for arr := lo; arr <= hi; arr++ {
				cyc := c.cycles[op][arr]
				// Eq. 43. Times are non-negative and never NaN, so this is
				// math.Max without its call.
				start := timeline[arr]
				if depEnd > start {
					start = depEnd
				}
				end := start + cyc // Eq. 44
				if end < bestEnd { // Eq. 45
					bestEnd, bestArr, bestCycles, bestStart = end, arr, cyc, start
				}
			}
			timeline[bestArr] = bestEnd // Eq. 46
			busy[bestArr] += bestCycles
			endT[row+int(op)] = bestEnd
			w.assign[op] = bestArr
			if bestEnd > makespan {
				makespan = bestEnd
			}
			if w.trace != nil {
				w.trace.Entries = append(w.trace.Entries, TraceEntry{
					Op: c.names[op], Epoch: epoch, Array: bestArr, Start: bestStart, End: bestEnd,
				})
			}
			i++

			if bounded {
				if i == sb.checkpoint {
					sb.ckMk = makespan
					sb.ckBusy1 = busy[perf.PE1D]
					sb.ckBusy2 = busy[perf.PE2D]
				}
				// Lower-bound the final extrapolated total (see sweepBound's
				// soundness note) and abort once it clears the incumbent.
				lb := makespan
				if sb.scale > 0 && (sb.checkpoint == 0 || i > sb.checkpoint) {
					mb := sb.mkBase
					if sb.checkpoint > 0 {
						mb = sb.ckMk
					}
					lb = makespan + (makespan-mb)*sb.scale
				}
				if lb > sb.limit {
					cells.Add(int64(i))
					return math.Inf(1), busy
				}
			}
		}
	}
	if bounded {
		cells.Add(int64(i))
	}
	return makespan, busy
}

// abortSweep ends a sweep at a dependency violation reached at instance
// index i, crediting a bounded sweep's cells up to and including that
// instance.
func abortSweep(cells *obs.Counter, bounded bool, i int, busy [2]float64) (float64, [2]float64) {
	if bounded {
		cells.Add(int64(i + 1))
	}
	return math.Inf(1), busy
}
