package serve

import (
	"context"
	"sync/atomic"

	"github.com/fusedmindlab/transfusion/internal/chaos"
	"github.com/fusedmindlab/transfusion/internal/faults"
	"github.com/fusedmindlab/transfusion/internal/obs"
)

// admission is the bounded-concurrency controller in front of the evaluation
// pool: at most maxConcurrent evaluations run at once, and callers beyond
// that wait in a depth-bounded queue. Queue depth is also the signal the
// degradation ladder reads (see Server.degradeTier): requests start losing
// search fidelity once the queue is half full, and only past twice the
// configured depth — when even heuristic-only answers cannot keep up — are
// arrivals shed outright with faults.ErrOverloaded (503 + Retry-After).
// Degrading before shedding keeps answers flowing: the heuristic tile is
// always a valid configuration, so a cheap answer beats no answer.
type admission struct {
	sem     chan struct{}
	queued  atomic.Int64
	hardCap int64

	shedC   *obs.Counter
	activeG *obs.Gauge
	queuedG *obs.Gauge
}

func newAdmission(maxConcurrent, maxQueue int, reg *obs.Registry) *admission {
	return &admission{
		sem: make(chan struct{}, maxConcurrent),
		// The ladder works inside [0, maxQueue]; the hard cap gives degraded
		// requests the same headroom again before arrivals are refused. With
		// queueing disabled (maxQueue 0) a busy pool sheds immediately.
		hardCap: 2 * int64(maxQueue),

		shedC:   reg.Counter("serve.shed"),
		activeG: reg.Gauge("serve.active"),
		queuedG: reg.Gauge("serve.queued"),
	}
}

// pressure reports the current wait-queue depth — the load signal behind the
// degradation ladder and the computed Retry-After.
func (a *admission) pressure() int64 { return a.queued.Load() }

// acquire claims an evaluation slot, waiting in the bounded queue when the
// pool is busy. It returns an error matching faults.ErrOverloaded when the
// queue is past its hard cap, or one matching faults.ErrCanceled when ctx
// expires while queued. A request whose context is already dead never
// acquires a slot, even if one happens to be free the instant it joins the
// race. A nil return must be paired with release. A traced caller gets an
// "admission.wait" span with the queue depth it saw, so time spent waiting
// for a slot is attributed in the request's trace.
func (a *admission) acquire(ctx context.Context) error {
	_, sp := obs.StartSpan(ctx, "admission.wait")
	if sp != nil {
		sp.SetAttrInt("queue_depth", a.pressure())
	}
	err := a.doAcquire(ctx)
	sp.EndErr(err)
	return err
}

// doAcquire is acquire's body; see there for the contract.
func (a *admission) doAcquire(ctx context.Context) error {
	if err := chaos.SiteFrom(ctx, chaos.SiteServeAdmission).Strike(ctx); err != nil {
		return err
	}
	select {
	case a.sem <- struct{}{}:
		return a.claimed(ctx)
	default:
	}
	if q := a.queued.Add(1); q > a.hardCap {
		a.queued.Add(-1)
		a.shedC.Inc()
		return faults.Overloadedf("serve: overloaded (queue depth %d past hard cap %d), retry later", q-1, a.hardCap)
	}
	a.queuedG.Set(float64(a.queued.Load()))
	defer func() {
		a.queued.Add(-1)
		a.queuedG.Set(float64(a.queued.Load()))
	}()
	select {
	case a.sem <- struct{}{}:
		return a.claimed(ctx)
	case <-ctx.Done():
		return faults.Canceled(ctx)
	}
}

// claimed finishes a slot claim. A slot and a cancellation can be ready at
// once (and a select picks its winner at random), so a caller that is
// already canceled gives the slot straight back instead of starting an
// evaluation nobody reads.
func (a *admission) claimed(ctx context.Context) error {
	if ctx.Err() != nil {
		<-a.sem
		return faults.Canceled(ctx)
	}
	a.activeG.Add(1)
	return nil
}

// release returns a slot claimed by acquire.
func (a *admission) release() {
	<-a.sem
	a.activeG.Add(-1)
}
