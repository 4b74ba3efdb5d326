package dpipe

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/graph"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// frontier is the candidate list DPipe evaluates for one DAG shape: the
// canonical topological order, then, for each explored bipartition (sorted
// by canonical key and truncated to MaxBipartitions), up to
// MaxOrdersPerPartition topological orders of its virtual-root overlay DAG.
// It depends only on the DAG (node names and edges) and on those two
// bounds, so it is built once per shape and shared read-only by every plan
// of that shape — across tiles, epochs, architectures and goroutines.
type frontier struct {
	cands      []candidate
	examined   int // subsets the complete bipartition scan examined
	partitions int // valid bipartitions the scan found, before truncation
	explored   int // bipartitions kept after sorting and truncation
	dups       int // duplicate candidates the build skipped
}

// frontiers is the process-wide frontier table, keyed by frontierKey. A
// frontier is a pure function of its key, so sharing entries between plans
// cannot change any result. Only complete builds are stored: a build that
// fails (budget, cancellation) leaves no entry behind.
var frontiers = struct {
	sync.Mutex
	m map[string]*frontierSlot
}{m: make(map[string]*frontierSlot)}

// maxFrontiers bounds the table. The scheduled cascades have a handful of
// shapes; a caller planning more than this many distinct DAGs gets the
// excess built per plan instead of growing the table without limit.
const maxFrontiers = 1024

// frontierSlot is one table entry. The first plan of a shape builds it;
// concurrent plans of the same shape wait for that build instead of
// repeating it.
type frontierSlot struct {
	done chan struct{} // closed once the build has settled
	f    *frontier     // set before done closes; nil when the build failed
}

// frontierKey identifies a frontier: the bounds, then every node with its
// sorted successors, joined with separator bytes no op name contains.
func frontierKey(g *graph.DAG, opts Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d", opts.MaxBipartitions, opts.MaxOrdersPerPartition)
	for _, n := range g.Nodes() {
		b.WriteByte('\x1e')
		b.WriteString(n)
		for _, s := range g.Succ(n) {
			b.WriteByte('\x1f')
			b.WriteString(s)
		}
	}
	return b.String()
}

// frontierFor returns the problem's frontier under opts, building it on the
// shape's first plan, and credits reg with the plan's enumeration:
// dpipe.enumerated and dpipe.bipartitions get the counts a cold bipartition
// scan reports whether this plan scanned or read the table, and
// dpipe.frontier_builds counts the scans that completed.
//
// The enumeration budget and cancellation behave as for a cold scan: when
// the context is done or opts.MaxEnumeration is below the cached examined
// count, the scan is replayed so the error and its examined count are the
// ones the scan itself produces.
func frontierFor(ctx context.Context, p *Problem, c *compiled, opts Options, reg *obs.Registry) (*frontier, error) {
	key := frontierKey(p.Deps, opts)
	var s *frontierSlot
	for {
		frontiers.Lock()
		var ok bool
		if s, ok = frontiers.m[key]; !ok {
			s = &frontierSlot{done: make(chan struct{})}
			stored := len(frontiers.m) < maxFrontiers
			if stored {
				frontiers.m[key] = s
			}
			frontiers.Unlock()
			return s.build(ctx, key, stored, p, c, opts, reg)
		}
		frontiers.Unlock()
		select {
		case <-s.done:
		case <-ctx.Done():
			accountScan(reg, 0, 0)
			return nil, faults.Canceled(ctx)
		}
		if s.f != nil {
			break
		}
		// The build this plan waited on failed under its caller's budget or
		// context; build again under this plan's own.
	}
	f := s.f
	if ctx.Err() != nil || (opts.MaxEnumeration > 0 && f.examined > opts.MaxEnumeration) {
		if _, examined, err := p.Deps.BipartitionsBounded(ctx, opts.MaxEnumeration); err != nil {
			accountScan(reg, examined, 0)
			return nil, err
		}
	}
	accountScan(reg, f.examined, f.partitions)
	return f, nil
}

// build runs the shape's first scan, then publishes the outcome and wakes
// the plans waiting on it. A failed (or panicking) build publishes nil and
// removes its slot, so a later plan builds afresh.
func (s *frontierSlot) build(ctx context.Context, key string, stored bool, p *Problem, c *compiled, opts Options, reg *obs.Registry) (f *frontier, err error) {
	defer func() {
		frontiers.Lock()
		s.f = f
		if stored && f == nil {
			delete(frontiers.m, key)
		}
		frontiers.Unlock()
		close(s.done)
	}()
	f, err = buildFrontier(ctx, p, c, opts, reg)
	if err == nil && reg != nil {
		reg.Counter("dpipe.frontier_builds").Inc()
	}
	return f, err
}

// accountScan credits a plan's bipartition scan, real or read from the
// table.
func accountScan(reg *obs.Registry, examined, partitions int) {
	if reg != nil {
		reg.Counter("dpipe.enumerated").Add(int64(examined))
		reg.Counter("dpipe.bipartitions").Add(int64(partitions))
	}
}

// rootID names the virtual root that ties a bipartition's two subgraphs into
// one DAG.
const rootID = "\x00ROOT"

// buildFrontier enumerates the problem's frontier afresh, crediting
// reg with the scan even when it aborts on budget or cancellation.
func buildFrontier(ctx context.Context, p *Problem, c *compiled, opts Options, reg *obs.Registry) (*frontier, error) {
	canonical, err := p.Deps.TopoSort()
	if err != nil {
		return nil, err
	}
	parts, examined, err := p.Deps.BipartitionsBounded(ctx, opts.MaxEnumeration)
	accountScan(reg, examined, len(parts))
	if err != nil {
		return nil, err
	}
	f := &frontier{examined: examined, partitions: len(parts)}
	// Sort bipartitions by canonical key before truncating, so the explored
	// prefix is a property of the problem, not of enumeration order.
	partKeys := make([]string, len(parts))
	for i, part := range parts {
		partKeys[i] = strings.Join(part.FirstSorted(), "\x1f")
	}
	sort.Sort(&keyedParts{keys: partKeys, parts: parts})
	if len(parts) > opts.MaxBipartitions {
		parts = parts[:opts.MaxBipartitions]
	}
	f.explored = len(parts)

	cs := newCandidateSet(nil)
	cs.add(canonical, graph.Bipartition{})
	for _, part := range parts {
		if ctx.Err() != nil {
			return nil, faults.Canceled(ctx)
		}
		// The overlap DAG of Figure 7(d): in the pipelined execution the
		// first subgraph of epoch k runs concurrently with the second
		// subgraph of epoch k-1, so the cross edges S1 -> S2 (which connect
		// different epochs) are dropped; a virtual root ties the two induced
		// subgraphs into a single DAG whose topological orders are the
		// candidate interleavings.
		overlay := graph.New()
		for node := range part.First {
			overlay.AddNode(node)
		}
		for node := range part.Second {
			overlay.AddNode(node)
		}
		for _, from := range p.Deps.Nodes() {
			for _, to := range p.Deps.Succ(from) {
				if part.First[from] == part.First[to] {
					overlay.AddEdge(from, to)
				}
			}
		}
		rooted, err := overlay.WithVirtualRoot(rootID)
		if err != nil {
			return nil, err
		}
		for _, order := range rooted.TopoOrders(opts.MaxOrdersPerPartition) {
			// Strip the virtual root.
			clean := make([]string, 0, len(order)-1)
			for _, id := range order {
				if id != rootID {
					clean = append(clean, id)
				}
			}
			cs.add(clean, part)
		}
	}
	f.cands, f.dups = cs.list, cs.dups
	for i := range f.cands {
		c.lower(&f.cands[i])
	}
	return f, nil
}

// candidate is one (ordering, bipartition) schedule to evaluate, with the
// canonical key the reduction uses as its deterministic tie-break and its
// op-id form for the compiled DP.
type candidate struct {
	order []string
	part  graph.Bipartition
	key   string
	ids   []int32 // order as op ids
	first []bool  // part.First by op id; nil for the unpartitioned schedule
}

// lower fills the candidate's op-id form. Frontier orders and validated
// hints name only the problem's ops, so the id lookup cannot fail.
func (c *compiled) lower(cand *candidate) {
	cand.ids, _ = c.ids(cand.order)
	cand.first = c.firstSet(cand.part.First)
}

// withHints returns the plan's candidate list and how many of its leading
// entries are warm hints: the valid hints (deduplicated among themselves)
// first, then the frontier minus any candidate a hint already supplies.
// Without a valid hint the frontier's own list is returned unchanged. Every
// skipped duplicate increments dedup.
func withHints(c *compiled, f *frontier, hints []Hint, dedup *obs.Counter) ([]candidate, int) {
	cs := newCandidateSet(dedup)
	for _, h := range hints {
		if part, ok := h.bipartition(c.p); ok {
			cs.add(h.Order, part)
		}
	}
	nHints := len(cs.list)
	if nHints == 0 {
		return f.cands, 0
	}
	list := make([]candidate, nHints, nHints+len(f.cands))
	copy(list, cs.list)
	for i := range list[:nHints] {
		c.lower(&list[i])
	}
	for _, fc := range f.cands {
		if cs.seen[fc.key] {
			cs.dups++
			dedup.Inc()
			continue
		}
		list = append(list, fc)
	}
	return list, nHints
}

// candidateSet accumulates candidate schedules, skipping duplicates under an
// unambiguous canonical key — order and First set joined with separator
// bytes no op name can contain. The skip counter makes collisions
// observable.
//
// The enumeration itself never drives the counter: TopoOrders backtracks
// without ever emitting the same ordering twice, each bipartition is
// uniquely determined by its First set, and the canonical order is added
// with an empty First set no bipartition can share (both sides of a valid
// bipartition are non-empty). It fires when a warm hint regenerates a
// frontier candidate, and it exists because an earlier fmt.Sprint-based key
// *could* collide — the dedup, not the enumerator, is what guarantees the
// evaluated set is collision-free.
type candidateSet struct {
	list  []candidate
	seen  map[string]bool
	dups  int
	dedup *obs.Counter
}

func newCandidateSet(dedup *obs.Counter) *candidateSet {
	return &candidateSet{seen: map[string]bool{}, dedup: dedup}
}

// add records the candidate unless an identical (order, First) pair was
// already added, in which case the dedup counter fires; duplicates would
// schedule identically, so evaluating them would only waste DP sweeps.
func (cs *candidateSet) add(order []string, part graph.Bipartition) {
	key := strings.Join(order, "\x1f") + "\x1e" + strings.Join(part.FirstSorted(), "\x1f")
	if cs.seen[key] {
		cs.dups++
		cs.dedup.Inc()
		return
	}
	cs.seen[key] = true
	cs.list = append(cs.list, candidate{order: order, part: part, key: key})
}

// skipped returns how many duplicate adds were rejected, independent of any
// metrics registry.
func (cs *candidateSet) skipped() int { return cs.dups }

// keyedParts sorts a bipartition slice and its precomputed canonical keys in
// lockstep.
type keyedParts struct {
	keys  []string
	parts []graph.Bipartition
}

func (k *keyedParts) Len() int           { return len(k.keys) }
func (k *keyedParts) Less(i, j int) bool { return k.keys[i] < k.keys[j] }
func (k *keyedParts) Swap(i, j int) {
	k.keys[i], k.keys[j] = k.keys[j], k.keys[i]
	k.parts[i], k.parts[j] = k.parts[j], k.parts[i]
}
