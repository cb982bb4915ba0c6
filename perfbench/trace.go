package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccd"
	"repro/internal/service"
	"repro/internal/solidity"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the id of the span that caused it (-1 for a request's root).
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-layer counts in memory; they are written out
// when the run ends. A tracer that is off records nothing, so the same
// composed request path runs untraced for the overhead comparison.
type tracer struct {
	on     bool
	t0     time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]*acc
}

// acc accumulates one per-layer count.
type acc struct{ sum, n float64 }

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), counts: map[string]*acc{}}
}

func (t *tracer) begin(req int64, parent int, name string) int {
	if !t.on {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, ID: len(t.spans), Parent: parent, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(req int64, parent int, name string, fn func()) {
	id := t.begin(req, parent, name)
	fn()
	t.end(id)
}

// count adds one observation to a per-layer count.
func (t *tracer) count(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	a := t.counts[name]
	if a == nil {
		a = &acc{}
		t.counts[name] = a
	}
	a.sum += v
	a.n++
	t.mu.Unlock()
}

// mean of a count (0 when never observed).
func (t *tracer) mean(name string) (float64, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.counts[name]
	if a == nil || a.n == 0 {
		return 0, 0
	}
	return a.sum / a.n, int(a.n)
}

// selfTimes returns, per span name, the mean self time in µs (span
// duration minus the time its child spans cover) and the span count.
func (t *tracer) selfTimes() map[string]*acc {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*acc{}
	for i, s := range t.spans {
		a := out[s.Name]
		if a == nil {
			a = &acc{}
			out[s.Name] = a
		}
		a.sum += float64(s.End-s.Start-child[i]) / 1e3
		a.n++
	}
	return out
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// --- the composed request path ---------------------------------------------------

// composed replays requests in-process by calling each layer's public API
// in the order the server does: admit → queue wait → fingerprint (parse,
// normalize, fingerprint) → corpus match, or → durable add.
type composed struct {
	eng *service.Engine
	tr  *tracer
	req atomic.Int64
}

// fingerprint runs the fingerprint layers one by one under parent.
func (c *composed) fingerprint(req int64, parent int, src string) ccd.Fingerprint {
	var unit *solidity.SourceUnit
	var nu ccd.NormalizedUnit
	var fp ccd.Fingerprint
	c.tr.do(req, parent, "solidity.parse", func() { unit, _ = solidity.Parse(src) })
	c.tr.do(req, parent, "ccd.normalize", func() { nu = ccd.NormalizeUnit(unit) })
	c.tr.do(req, parent, "ccd.fingerprint", func() { fp = ccd.FingerprintUnit(nu) })
	return fp
}

// request wraps fn in a request span with admission and the worker-pool
// queue wait in front of it.
func (c *composed) request(kind string, o *outcome, fn func(req int64, root int) bool) {
	o.kind = kind
	req := c.req.Add(1)
	root := c.tr.begin(req, -1, "request."+kind)
	defer func() {
		c.tr.end(root)
		o.end = time.Now()
	}()
	var release func()
	var err error
	c.tr.do(req, root, "service.admit", func() { release, err = c.eng.AdmitRequest() })
	if err != nil {
		o.err = true
		return
	}
	defer release()
	wait := c.tr.begin(req, root, "service.queue_wait")
	called := time.Now()
	ok := false
	derr := c.eng.DoCtx(context.Background(), func() {
		c.tr.end(wait)
		c.tr.count("service.queue_wait_us", us(time.Since(called)))
		ok = fn(req, root)
	})
	o.err = derr != nil || !ok
}

// match composes one /v1/match top-10 query; check, when non-nil, verifies
// the answer after the replay.
func (c *composed) match(src string, o *outcome, check func([]ccd.Match) string) {
	c.request("match", o, func(req int64, root int) bool {
		fp := c.fingerprint(req, root, src)
		var ms []ccd.Match
		var st ccd.MatchStats
		c.tr.do(req, root, "service.match", func() { ms, st = c.eng.Corpus().MatchTopK(fp, topK) })
		c.tr.count("service.segments", float64(c.eng.Corpus().Segments()))
		c.tr.count("service.match.scored", float64(st.Scored))
		if check != nil {
			o.check = func() string { return check(ms) }
		}
		return true
	})
}

// ingest composes one durable single-entry ingest.
func (c *composed) ingest(q input, o *outcome) {
	c.request("ingest", o, func(req int64, root int) bool {
		fp := c.fingerprint(req, root, q.Source)
		var err error
		c.tr.do(req, root, "service.ingest", func() { err = c.eng.CorpusAddFingerprintCtx(context.Background(), q.ID, fp) })
		return err == nil
	})
}

// replay runs the open-loop schedule of a seed against op, traced or not,
// and returns the latencies.
func replay(seed int64, rate float64, dur time.Duration, op opFunc) loopStats {
	return openLoop(poisson(seed, rate, dur), conns(), 30*time.Second, op)
}

// layerReport prints the traced run's per-layer metrics: every one of
// layers, 0 where this workload never calls the layer, plus the self time
// of every span name.
func layerReport(rep *report, tr *tracer, layers []metric, values map[string]metric) {
	self := tr.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := self[n]
		rep.add("self."+n+"_us", "us", a.sum/a.n, int(a.n))
	}
	for _, pl := range layers {
		m := values[pl.Name]
		m.Name, m.Unit = pl.Name, pl.Unit
		rep.gated = append(rep.gated, m)
		rep.lines = append(rep.lines, m)
	}
}

// spanMean is the mean self time (µs) of a span name, with its count.
func spanMean(tr *tracer, name string) metric {
	a := tr.selfTimes()[name]
	if a == nil {
		return metric{}
	}
	return metric{Value: a.sum / a.n, N: int(a.n)}
}

// countMean is the mean of a per-layer count, with its sample count.
func countMean(tr *tracer, name string) metric {
	v, n := tr.mean(name)
	return metric{Value: v, N: n}
}

// overhead runs the same composed path untraced and traced over the same
// schedule and records both end-to-end results and the tracing overhead.
func overhead(rep *report, values map[string]metric, kind string, untraced, traced loopStats) {
	u := latencies(untraced.outcomes, kind)
	t := latencies(traced.outcomes, kind)
	up50, tp50 := quantile(u, 0.5), quantile(t, 0.5)
	rep.add("untraced."+kind+"_p50_ms", "ms", up50, len(u))
	rep.add("untraced."+kind+"_p90_ms", "ms", quantile(u, 0.90), len(u))
	values["trace.p50_ms"] = metric{Value: tp50, N: len(t)}
	values["trace.p90_ms"] = metric{Value: quantile(t, 0.90), N: len(t)}
	values["trace.overhead_share"] = metric{Value: ratio(tp50-up50, up50), N: len(t)}
	lates := lateMs(traced.outcomes)
	values["gen.late_p98_ms"] = metric{Value: quantile(lates, 0.98), N: len(lates)}
	values["gen.backlog_max"] = metric{Value: float64(traced.backlogMax), N: len(traced.outcomes)}
}

// tracePath is where a traced run writes its spans.
func tracePath(cfg config) string {
	return cfg.work("traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
}
