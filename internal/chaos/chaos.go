// Package chaos is the deterministic fault-injection framework behind the
// serving path's resilience tests. Production code registers named *injection
// sites* — `serve.admission`, `serve.cache.leader`, `serve.peer.fetch`,
// `cluster.probe`, `tileseek.rollout`, `dpipe.candidate`, and the persistent
// plan store's disk-fault sites `store.write`, `store.read`, `store.fsync` —
// at the points
// where a real deployment fails: a stuck evaluation, a panicking cache
// leader, a partitioned cluster peer, a slow
// enumeration, a torn record write. A seeded
// *Injector* carried in the context arms a subset of those sites with a fault
// schedule (latency, error, panic, or simulated context-cancel), and the
// chaos test suite then runs the real daemon under the schedule asserting the
// system's invariants hold.
//
// The package mirrors internal/obs's zero-cost discipline: when no Injector
// is attached to the context, SiteFrom returns a nil *Site whose Strike is a
// single nil-check — no allocation, no interface boxing, no time lookup — so
// the hooks can live permanently on hot paths (guarded by an AllocsPerRun
// test). All schedules are deterministic for a fixed seed: "probability"
// decisions hash (seed, site, hit-ordinal) through SplitMix64 rather than
// consulting a global RNG, so a failing chaos run replays exactly.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/fusedmindlab/transfusion/internal/faults"
)

// Canonical site names. Production code should use these constants rather
// than string literals so schedules and code cannot drift apart.
const (
	// SiteServeAdmission fires once per admission attempt, before the
	// request tries to claim an evaluation slot (latency here models queue
	// delay upstream of the pool).
	SiteServeAdmission = "serve.admission"
	// SiteServeCacheLeader fires once per cache-leader evaluation, inside
	// the singleflight closure (a panic here exercises the joiner-error
	// path; latency models a stuck evaluation whose caller may give up).
	SiteServeCacheLeader = "serve.cache.leader"
	// SiteTileseekRollout fires once per MCTS rollout.
	SiteTileseekRollout = "tileseek.rollout"
	// SiteDPipeCandidate fires once per candidate schedule evaluation.
	SiteDPipeCandidate = "dpipe.candidate"
	// SiteStoreWrite fires once per persistent-store record write, before
	// the payload reaches the temp file (KindShortWrite here models a torn
	// write: the store writes a truncated temp file and reports the error,
	// exactly the on-disk state a crash mid-write leaves behind).
	SiteStoreWrite = "store.write"
	// SiteStoreRead fires once per persistent-store record read (errors
	// here must degrade to a cache miss, never to a failed request).
	SiteStoreRead = "store.read"
	// SiteStoreFsync fires once per store fsync, between writing the temp
	// file and the atomic rename (latency here holds a record mid-write —
	// the window the kill-mid-write crash tests SIGKILL into).
	SiteStoreFsync = "store.fsync"
	// SiteServePeerFetch fires once per cluster peer plan fetch, on the
	// requesting (non-owner) replica before the RPC goes out. Errors and
	// cancels here must degrade to a local search — never to a failed
	// request — and latency models a slow or partitioned owner (bounded by
	// the fetch context, so it converts to the same local fallback).
	SiteServePeerFetch = "serve.peer.fetch"
	// SiteClusterProbe fires once per membership health probe, before the
	// prober's /readyz round-trip goes out. Errors here simulate a
	// partitioned or crashed peer (consecutive strikes walk it through
	// suspect into dead); latency simulates a slow-but-alive peer — it
	// rides the probe's own timeout, inflates the latency EWMA, and must
	// never flap the ring on a single strike (hysteresis).
	SiteClusterProbe = "cluster.probe"
)

// ErrInjected marks every chaos-injected error (Kinds KindError and
// KindShortWrite); match with errors.Is. Injected cancellations instead match
// faults.ErrCanceled (and context.Canceled), and injected panics carry a
// descriptive string value — each fault kind is deliberately
// indistinguishable from the real failure it simulates, except for this
// sentinel on plain errors.
var ErrInjected = errors.New("chaos: injected fault")

// ErrShortWrite marks an injected short write (KindShortWrite): the
// instrumented writer is expected to persist only a truncated prefix of the
// record and surface this error, leaving the same torn bytes on disk a crash
// mid-write would. It matches ErrInjected too.
var ErrShortWrite = fmt.Errorf("short write: %w", ErrInjected)

// Kind selects what an armed site injects when its schedule fires.
type Kind int

const (
	// KindLatency sleeps for the configured duration (bounded by the
	// context's lifetime: if the context dies mid-sleep, Strike returns an
	// error matching faults.ErrCanceled, exactly as real slow code would
	// observe the deadline).
	KindLatency Kind = iota
	// KindError returns an error matching ErrInjected.
	KindError
	// KindPanic panics with a descriptive string value.
	KindPanic
	// KindCancel returns an error matching faults.ErrCanceled and
	// context.Canceled without touching the context — simulating the
	// caller's context dying at exactly this point.
	KindCancel
	// KindShortWrite returns an error matching ErrShortWrite (and
	// ErrInjected). Only write-shaped sites give it meaning: the
	// instrumented code reacts by leaving a truncated record behind,
	// simulating a torn write / crash mid-write.
	KindShortWrite
)

// String names the kind as the Parse grammar spells it.
func (k Kind) String() string {
	switch k {
	case KindLatency:
		return "latency"
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindCancel:
		return "cancel"
	case KindShortWrite:
		return "shortwrite"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// SiteConfig arms one site with a fault schedule. The schedule fires on a
// hit when all of the following hold, evaluated against the site's atomic
// 1-based hit ordinal n:
//
//   - n > After (the first After hits always pass through);
//   - Every > 0 and (n-After) is a multiple of Every, or Every == 0 and the
//     deterministic hash of (seed, site, n) falls below P;
//   - fewer than Limit faults have fired so far (Limit 0 = unlimited).
type SiteConfig struct {
	// Site is the injection-site name (one of the Site* constants, or any
	// name a test registers).
	Site string
	// Kind selects the fault.
	Kind Kind
	// Latency is the injected delay for KindLatency (ignored otherwise).
	Latency time.Duration
	// Every fires on every Every-th eligible hit when positive.
	Every int
	// P is the per-hit fire probability when Every is zero (deterministic
	// for a fixed injector seed).
	P float64
	// After skips the first After hits entirely.
	After int
	// Limit caps the number of fires (0 = unlimited).
	Limit int
}

func (c SiteConfig) validate() error {
	if c.Site == "" {
		return fmt.Errorf("chaos: site config with empty site name")
	}
	if c.Kind < KindLatency || c.Kind > KindShortWrite {
		return fmt.Errorf("chaos: site %s: unknown kind %d", c.Site, int(c.Kind))
	}
	if c.Kind == KindLatency && c.Latency <= 0 {
		return fmt.Errorf("chaos: site %s: latency kind needs a positive duration", c.Site)
	}
	if c.Every < 0 || c.After < 0 || c.Limit < 0 {
		return fmt.Errorf("chaos: site %s: negative schedule field", c.Site)
	}
	if c.P < 0 || c.P > 1 {
		return fmt.Errorf("chaos: site %s: probability %g out of [0,1]", c.Site, c.P)
	}
	if c.Every == 0 && c.P == 0 {
		return fmt.Errorf("chaos: site %s: schedule never fires (set every or p)", c.Site)
	}
	return nil
}

// Site is one armed injection site. A nil *Site (the unconfigured case) is
// fully usable: Strike returns nil immediately.
type Site struct {
	cfg   SiteConfig
	seed  uint64
	hits  atomic.Int64
	fires atomic.Int64
}

// mix64 is the standard SplitMix64 finalizer, used to turn
// (seed, site, ordinal) into an independent uniform stream.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// hashString folds a site name into the seed stream (FNV-1a).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// shouldFire evaluates the deterministic schedule for hit ordinal n.
func (s *Site) shouldFire(n int64) bool {
	eligible := n - int64(s.cfg.After)
	if eligible <= 0 {
		return false
	}
	if s.cfg.Every > 0 {
		return eligible%int64(s.cfg.Every) == 0
	}
	u := mix64(s.seed ^ hashString(s.cfg.Site) ^ uint64(n))
	return float64(u>>11)/(1<<53) < s.cfg.P
}

// Strike evaluates the site's schedule for this hit and injects the
// configured fault when it fires: KindLatency sleeps (returning an error
// matching faults.ErrCanceled if ctx dies mid-sleep), KindError returns an
// error matching ErrInjected, KindPanic panics, and KindCancel returns an
// error matching faults.ErrCanceled. On a nil receiver (site unconfigured)
// Strike is a single branch and returns nil.
func (s *Site) Strike(ctx context.Context) error {
	if s == nil {
		return nil
	}
	n := s.hits.Add(1)
	if !s.shouldFire(n) {
		return nil
	}
	if s.cfg.Limit > 0 && s.fires.Add(1) > int64(s.cfg.Limit) {
		s.fires.Add(-1) // report Fires == Limit, not the overshoot
		return nil
	}
	if s.cfg.Limit == 0 {
		s.fires.Add(1)
	}
	switch s.cfg.Kind {
	case KindLatency:
		t := time.NewTimer(s.cfg.Latency)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return faults.Canceled(ctx)
		}
	case KindError:
		return fmt.Errorf("chaos: injected error at %s (hit %d): %w", s.cfg.Site, n, ErrInjected)
	case KindPanic:
		panic(fmt.Sprintf("chaos: injected panic at %s (hit %d)", s.cfg.Site, n))
	case KindCancel:
		return faults.Canceled(ctx)
	case KindShortWrite:
		return fmt.Errorf("chaos: injected short write at %s (hit %d): %w", s.cfg.Site, n, ErrShortWrite)
	}
	return nil
}

// Hits returns how many times the site was reached (zero on nil).
func (s *Site) Hits() int64 {
	if s == nil {
		return 0
	}
	return s.hits.Load()
}

// Fires returns how many faults the site injected (zero on nil).
func (s *Site) Fires() int64 {
	if s == nil {
		return 0
	}
	return s.fires.Load()
}

// Injector is a set of armed sites sharing one seed. A nil *Injector is
// fully usable and arms nothing.
type Injector struct {
	seed  uint64
	sites map[string]*Site
}

// New builds an Injector arming the given sites under one seed. Duplicate
// site names and invalid schedules are rejected.
func New(seed uint64, cfgs ...SiteConfig) (*Injector, error) {
	in := &Injector{seed: seed, sites: make(map[string]*Site, len(cfgs))}
	for _, cfg := range cfgs {
		if err := cfg.validate(); err != nil {
			return nil, err
		}
		if _, dup := in.sites[cfg.Site]; dup {
			return nil, fmt.Errorf("chaos: site %s armed twice", cfg.Site)
		}
		in.sites[cfg.Site] = &Site{cfg: cfg, seed: seed}
	}
	return in, nil
}

// Site returns the armed site by name, or nil when the injector is nil or
// the site is not armed — the returned *Site is always safe to Strike.
func (in *Injector) Site(name string) *Site {
	if in == nil {
		return nil
	}
	return in.sites[name]
}

// Fires returns the named site's fire count (zero when unarmed).
func (in *Injector) Fires(name string) int64 { return in.Site(name).Fires() }

// Hits returns the named site's hit count (zero when unarmed).
func (in *Injector) Hits(name string) int64 { return in.Site(name).Hits() }

// String summarises the armed sites for logging.
func (in *Injector) String() string {
	if in == nil || len(in.sites) == 0 {
		return "chaos: disarmed"
	}
	names := make([]string, 0, len(in.sites))
	for n := range in.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: seed=%d", in.seed)
	for _, n := range names {
		s := in.sites[n]
		fmt.Fprintf(&b, " %s=%s", n, s.cfg.Kind)
		if s.cfg.Kind == KindLatency {
			fmt.Fprintf(&b, ":%s", s.cfg.Latency)
		}
		if s.cfg.Every > 0 {
			fmt.Fprintf(&b, "@every=%d", s.cfg.Every)
		} else {
			fmt.Fprintf(&b, "@p=%g", s.cfg.P)
		}
		if s.cfg.After > 0 {
			fmt.Fprintf(&b, "@after=%d", s.cfg.After)
		}
		if s.cfg.Limit > 0 {
			fmt.Fprintf(&b, "@limit=%d", s.cfg.Limit)
		}
	}
	return b.String()
}

// ctxKey is the context key carrying the Injector; a zero-size type keys
// without allocating.
type ctxKey struct{}

// With returns a context carrying the injector; nil detaches (the derived
// context reads as unconfigured).
func With(ctx context.Context, in *Injector) context.Context {
	return context.WithValue(ctx, ctxKey{}, in)
}

// From returns the context's injector, or nil when none is attached.
func From(ctx context.Context) *Injector {
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

// SiteFrom resolves a named site from the context's injector in one step.
// Hot paths should hoist this lookup out of their loop and Strike the
// returned (possibly nil) *Site per iteration.
func SiteFrom(ctx context.Context, name string) *Site {
	return From(ctx).Site(name)
}

// Parse builds an Injector from a compact schedule spec, the -chaos CLI
// grammar:
//
//	spec    = clause *( ";" clause )
//	clause  = site "=" kind [ ":" duration ] *( "@" key "=" value )
//	kind    = "latency" | "error" | "panic" | "cancel" | "shortwrite"
//	key     = "every" | "p" | "after" | "limit"
//
// Example:
//
//	serve.cache.leader=panic@every=3;tileseek.rollout=latency:2ms@p=0.25@limit=10
//
// An empty spec returns a nil (disarmed) injector.
func Parse(spec string, seed uint64) (*Injector, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var cfgs []SiteConfig
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		site, rest, ok := strings.Cut(clause, "=")
		if !ok || site == "" {
			return nil, fmt.Errorf("chaos: clause %q is not site=kind", clause)
		}
		cfg := SiteConfig{Site: strings.TrimSpace(site)}
		parts := strings.Split(rest, "@")
		kindSpec := strings.TrimSpace(parts[0])
		kindName, arg, hasArg := strings.Cut(kindSpec, ":")
		switch kindName {
		case "latency":
			cfg.Kind = KindLatency
			if !hasArg {
				return nil, fmt.Errorf("chaos: clause %q: latency needs a duration (latency:5ms)", clause)
			}
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("chaos: clause %q: bad duration %q: %v", clause, arg, err)
			}
			cfg.Latency = d
		case "error":
			cfg.Kind = KindError
		case "panic":
			cfg.Kind = KindPanic
		case "cancel":
			cfg.Kind = KindCancel
		case "shortwrite":
			cfg.Kind = KindShortWrite
		default:
			return nil, fmt.Errorf("chaos: clause %q: unknown kind %q (have latency, error, panic, cancel, shortwrite)", clause, kindName)
		}
		if cfg.Kind != KindLatency && hasArg {
			return nil, fmt.Errorf("chaos: clause %q: kind %s takes no argument", clause, kindName)
		}
		for _, mod := range parts[1:] {
			key, val, ok := strings.Cut(strings.TrimSpace(mod), "=")
			if !ok {
				return nil, fmt.Errorf("chaos: clause %q: modifier %q is not key=value", clause, mod)
			}
			switch key {
			case "every":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("chaos: clause %q: bad every %q", clause, val)
				}
				cfg.Every = n
			case "p":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("chaos: clause %q: bad p %q", clause, val)
				}
				cfg.P = p
			case "after":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("chaos: clause %q: bad after %q", clause, val)
				}
				cfg.After = n
			case "limit":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, fmt.Errorf("chaos: clause %q: bad limit %q", clause, val)
				}
				cfg.Limit = n
			default:
				return nil, fmt.Errorf("chaos: clause %q: unknown modifier %q (have every, p, after, limit)", clause, key)
			}
		}
		if cfg.Every == 0 && cfg.P == 0 {
			// Unmodified clauses fire on every hit — the obvious reading of
			// "site=panic".
			cfg.Every = 1
		}
		cfgs = append(cfgs, cfg)
	}
	return New(seed, cfgs...)
}
