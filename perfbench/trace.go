package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fusedmindlab/transfusion/internal/obs"
)

// span is one recorded call into a layer: its name, when it ran, the span
// that caused it and the request it belongs to.
type span struct {
	id, parent, req int64
	name            string
	start, end      time.Time
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing but still times each call, so the untraced pass runs the same
// code with the recording cost removed.
type recorder struct {
	epoch   time.Time
	nextID  atomic.Int64
	nextReq atomic.Int64
	mu      sync.Mutex
	spans   []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// recorder returns a span recorder in traced runs and nil otherwise.
func (b *bench) recorder() *recorder {
	if b.cfg.trace {
		return newRecorder()
	}
	return nil
}

// request allocates a request id for a new root span.
func (r *recorder) request() int64 {
	if r == nil {
		return 0
	}
	return r.nextReq.Add(1)
}

// handle is an open span.
type handle struct {
	r     *recorder
	id    int64
	sp    span
	start time.Time
}

// begin opens a span named name under parent (0 for a root) in request req.
func (r *recorder) begin(req, parent int64, name string) handle {
	h := handle{r: r, start: time.Now()}
	if r != nil {
		h.id = r.nextID.Add(1)
		h.sp = span{id: h.id, parent: parent, req: req, name: name, start: h.start}
	}
	return h
}

// end closes the span and returns its duration.
func (h handle) end() time.Duration {
	now := time.Now()
	if h.r != nil {
		h.sp.end = now
		h.r.mu.Lock()
		h.r.spans = append(h.r.spans, h.sp)
		h.r.mu.Unlock()
	}
	return now.Sub(h.start)
}

// layerOf is the module a span measures: its name up to the first dot.
func layerOf(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover (children may overlap one another when
// the search speculates on several goroutines).
func (r *recorder) selfTimes() map[string]time.Duration {
	children := map[int64][]span{}
	for _, s := range r.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range r.spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
		var covered time.Duration
		var curStart, curEnd time.Time
		for _, k := range kids {
			ks, ke := maxTime(k.start, s.start), minTime(k.end, s.end)
			if !ke.After(ks) {
				continue
			}
			if curEnd.IsZero() || ks.After(curEnd) {
				covered += curEnd.Sub(curStart)
				curStart, curEnd = ks, ke
			} else if ke.After(curEnd) {
				curEnd = ke
			}
		}
		covered += curEnd.Sub(curStart)
		self[layerOf(s.name)] += s.end.Sub(s.start) - covered
	}
	return self
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

// durations returns the durations of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s.end.Sub(s.start))
		}
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event JSON array, which
// Perfetto (ui.perfetto.dev) and chrome://tracing load. Spans are packed
// onto as few tracks as keep every track properly nested: concurrent client
// requests and the search's speculative objective calls get tracks of their
// own. Each event carries its span, parent and request ids.
func (r *recorder) writeChrome(path string, prov map[string]interface{}) error {
	spans := append([]span(nil), r.spans...)
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].start.Equal(spans[j].start) {
			return spans[i].start.Before(spans[j].start)
		}
		return spans[i].end.After(spans[j].end)
	})
	events := []obs.TraceEvent{obs.ProcessName(1, "perfbench")}
	events[0].Args["provenance"] = prov
	// Each track is a stack of open spans; a span joins the first track
	// whose innermost open span contains it (or has ended).
	type track struct {
		tid   int
		stack []span
	}
	var tracks []*track
	for _, s := range spans {
		var chosen *track
		for _, t := range tracks {
			for len(t.stack) > 0 && !t.stack[len(t.stack)-1].end.After(s.start) {
				t.stack = t.stack[:len(t.stack)-1]
			}
			if len(t.stack) == 0 || !s.end.After(t.stack[len(t.stack)-1].end) {
				chosen = t
				break
			}
		}
		if chosen == nil {
			chosen = &track{tid: len(tracks) + 1}
			tracks = append(tracks, chosen)
			events = append(events, obs.ThreadName(1, chosen.tid, fmt.Sprintf("track %d", chosen.tid)))
		}
		chosen.stack = append(chosen.stack, s)
		ev := obs.Complete(s.name, float64(s.start.Sub(r.epoch).Nanoseconds())/1e3,
			float64(s.end.Sub(s.start).Nanoseconds())/1e3, 1, chosen.tid)
		ev.Args = map[string]interface{}{"span": s.id, "parent": s.parent, "request": s.req}
		events = append(events, ev)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
