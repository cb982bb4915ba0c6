// Package service is the concurrent analysis layer in front of the
// reproduction's primitives: a bounded worker pool, content-addressed LRU
// caches for CCC vulnerability reports and CCD fingerprints, and a
// generational corpus whose readers are lock-free (matching loads one
// immutable snapshot pointer; ingest publishes new generations off the read
// path). The study pipeline fans its hot steps out through the same Engine
// that cmd/serve exposes over HTTP, so batch reproduction and online serving
// share one scheduling and caching substrate.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ccc"
	"repro/internal/ccd"
	"repro/internal/cluster"
	"repro/internal/index"
	"repro/internal/trace"
)

// DefaultCacheEntries bounds each cache layer when Options does not override
// it.
const DefaultCacheEntries = 4096

// Options configures an Engine.
type Options struct {
	// Workers bounds concurrent work; ≤ 0 selects GOMAXPROCS.
	Workers int
	// CacheEntries caps each cache layer (report, fingerprint).
	// 0 selects DefaultCacheEntries; < 0 disables caching (benchmarks use
	// this to measure the uncached path).
	CacheEntries int
	// CCD configures the engine's serving corpora (zero value:
	// ccd.DefaultConfig).
	CCD ccd.Config
	// Shards is the generation-shard count of each serving corpus (the
	// scatter-gather fan-out width); ≤ 0 selects GOMAXPROCS.
	Shards int
	// Backends lists extra similarity backends to serve alongside the
	// always-on ccd corpus (see index.Names). Unknown names panic — validate
	// with index.Known first when the list comes from user input.
	Backends []string
	// TrackClusters maintains the live clone-cluster view online: every
	// ingested document is matched against the ccd serving corpus and its
	// clone edges folded into an incremental union-find (GET /v1/clusters).
	// The live view is an additive approximation — supersedes don't unlink,
	// and each ingest contributes its top onlineClusterK edges — while the
	// /v1/study corpus mode recomputes the exact distribution on demand.
	TrackClusters bool
	// Admission bounds the request queue in front of the worker pool; the
	// zero value disables load shedding (see AdmissionConfig).
	Admission AdmissionConfig
	// Degrade tunes the pressure-tiered quality ladder (see DegradeConfig);
	// the zero value enables it with defaults.
	Degrade DegradeConfig
}

// onlineClusterK caps the clone edges one ingest contributes to the live
// cluster view. Top-K keeps ingest into an n-document clone cluster O(K)
// instead of O(n) while preserving connectivity: every new member links to
// the cluster's best matches, which are already linked to each other.
const onlineClusterK = 8

// Backend-routing errors, wrapped by CorpusFor and the match paths so the
// API layer can map them to distinct HTTP statuses.
var (
	// ErrUnknownBackend marks a backend name absent from the registry.
	ErrUnknownBackend = errors.New("unknown backend")
	// ErrBackendNotLoaded marks a registered backend this engine was not
	// started with.
	ErrBackendNotLoaded = errors.New("backend not loaded")
)

// Engine wraps CCC and CCD behind a worker pool and content-addressed
// caches. The cached primitives (Analyze, Fingerprint, Match, ...)
// are safe for concurrent use and do not themselves occupy worker slots;
// bounding happens at the task level through Do, Map and the *Batch
// helpers, so primitives may be freely composed inside pooled tasks without
// risking slot-starvation deadlocks.
type Engine struct {
	workers int
	sem     chan struct{}
	adm     admission
	ctr     counters
	deg     *degrade

	reports *lru[reportEntry]
	prints  *lru[fpEntry]

	// corpus is the always-on ccd serving corpus; corpora maps every loaded
	// backend name (including "ccd") to its sharded corpus. Both are fixed
	// at construction — reads need no locking.
	corpus  *Corpus
	corpora map[string]*Corpus

	// clusters is the live clone-cluster view (nil unless
	// Options.TrackClusters), updated as ingest lands.
	clusters *cluster.Set
}

// Cached values retain the original computation's error so a hit replays
// exactly what a miss produced (parse errors are deterministic per content).
type reportEntry struct {
	rep ccc.Report
	err error
}

type fpEntry struct {
	fp  ccd.Fingerprint
	err error
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		workers: workers,
		sem:     make(chan struct{}, workers),
		reports: newLRU[reportEntry](opts.CacheEntries),
		prints:  newLRU[fpEntry](opts.CacheEntries),
		corpus:  NewCorpus(opts.CCD, opts.Shards),
	}
	if q := opts.Admission.MaxQueue; q > 0 {
		e.adm.capacity = workers + q
	}
	eta := opts.CCD.Eta
	if opts.CCD.N == 0 {
		eta = ccd.DefaultConfig.Eta
	}
	e.deg = &degrade{cfg: opts.Degrade.withDefaults(), raisedEta: eta + (1-eta)/2}
	e.corpora = map[string]*Corpus{index.BackendCCD: e.corpus}
	for _, name := range opts.Backends {
		if name == index.BackendCCD {
			continue // always on
		}
		if _, dup := e.corpora[name]; dup {
			continue
		}
		c, err := NewBackendCorpus(name, index.Config{CCD: opts.CCD}, opts.Shards)
		if err != nil {
			panic(fmt.Sprintf("service: Options.Backends: %v", err))
		}
		e.corpora[name] = c
	}
	if opts.TrackClusters {
		e.clusters = cluster.New()
	}
	return e
}

// Clusters exposes the live clone-cluster view (nil unless the engine was
// built with Options.TrackClusters).
func (e *Engine) Clusters() *cluster.Set { return e.clusters }

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Backends returns the loaded backend names, sorted.
func (e *Engine) Backends() []string {
	out := make([]string, 0, len(e.corpora))
	for name := range e.corpora {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// --- worker pool --------------------------------------------------------------

// Do runs fn on a worker slot, blocking until one is free.
func (e *Engine) Do(fn func()) {
	_ = e.DoCtx(context.Background(), fn)
}

// DoCtx runs fn on a worker slot. If ctx is cancelled before a slot frees,
// fn never runs and ctx.Err() is returned — a disconnected client stops
// occupying the queue. Once fn starts it runs to completion; cancellation
// mid-task is the task's own business (the match paths check ctx between
// segments).
//
// Scheduling honors the context's Class: a ClassBackground task (self-join
// segments, bulk ingest batches) first yields while any interactive task is
// waiting for a slot, so interactive latency under a running study stays
// close to the uncontended baseline.
func (e *Engine) DoCtx(ctx context.Context, fn func()) error {
	if err := ctx.Err(); err != nil {
		return err // already cancelled: never race the semaphore
	}
	_, wait := trace.Start(ctx, "queue.wait")
	if ClassOf(ctx) == ClassBackground {
		wait.Annotate("class", "background")
		if err := e.yieldToInteractive(ctx); err != nil {
			wait.End()
			return err
		}
		select {
		case e.sem <- struct{}{}:
			wait.End()
		case <-ctx.Done():
			wait.End()
			return ctx.Err()
		}
	} else {
		e.ctr.interactiveWaiting.Add(1)
		select {
		case e.sem <- struct{}{}:
			e.ctr.interactiveWaiting.Add(-1)
			wait.End()
		case <-ctx.Done():
			e.ctr.interactiveWaiting.Add(-1)
			wait.End()
			return ctx.Err()
		}
	}
	e.ctr.taskStart()
	defer func() {
		e.ctr.taskDone()
		<-e.sem
	}()
	fn()
	return nil
}

// Map runs fn(i) for every i in [0, n) across the worker pool and waits for
// all of them. Items are dispatched through the engine-wide semaphore, so
// concurrent Map calls (several batch requests, a study job) share the same
// global bound. fn must not call Do or Map itself.
//
// A panic in fn stops dispatch and is re-raised on the calling goroutine
// once in-flight items drain, so callers' recover guards (the study job
// handler, net/http's per-request recovery) see it exactly as if the work
// had run serially.
func (e *Engine) Map(n int, fn func(int)) {
	_ = e.MapCtx(context.Background(), n, fn)
}

// MapCtx is Map with cancellation: once ctx is cancelled no further items
// are dispatched (in-flight items finish) and ctx.Err() is returned. Items
// skipped by cancellation simply never ran — callers distinguish them by the
// returned error.
func (e *Engine) MapCtx(ctx context.Context, n int, fn func(int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	spawn := min(e.workers, n)
	if spawn == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := e.DoCtx(ctx, func() { fn(i) }); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Bool
	var panicVal any // first panic; wg.Wait orders the read after the write
	wg.Add(spawn)
	for w := 0; w < spawn; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || panicked.Load() || ctx.Err() != nil {
					return
				}
				func() {
					defer func() {
						if p := recover(); p != nil && !panicked.Swap(true) {
							panicVal = p
						}
					}()
					_ = e.DoCtx(ctx, func() { fn(i) })
				}()
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	return ctx.Err()
}

// --- cached primitives --------------------------------------------------------

// Analyze runs the default CCC analyzer over src through the report cache.
func (e *Engine) Analyze(src string) (ccc.Report, error) {
	e.ctr.analyses.Add(1)
	key := ContentKey(src)
	if ent, ok := e.reports.Get(key); ok {
		return ent.rep, ent.err
	}
	rep, err := ccc.AnalyzeSource(src)
	e.reports.Put(key, reportEntry{rep: rep, err: err})
	return rep, err
}

// Fingerprint computes the CCD fuzzy-hash of src through the fingerprint
// cache. Matching ccd.FingerprintSource, a partial fingerprint is returned
// (and cached) even when parsing reported an error.
func (e *Engine) Fingerprint(src string) (ccd.Fingerprint, error) {
	e.ctr.fingerprints.Add(1)
	key := ContentKey(src)
	if ent, ok := e.prints.Get(key); ok {
		return ent.fp, ent.err
	}
	fp, err := ccd.FingerprintSource(src)
	e.prints.Put(key, fpEntry{fp: fp, err: err})
	return fp, err
}

// --- serving corpus -----------------------------------------------------------

// Corpus exposes the engine's always-on ccd serving corpus.
func (e *Engine) Corpus() *Corpus { return e.corpus }

// CorpusFor resolves a backend name to its serving corpus. The empty name
// selects ccd. Errors wrap ErrUnknownBackend (not in the registry) or
// ErrBackendNotLoaded (registered but not enabled on this engine).
func (e *Engine) CorpusFor(backend string) (*Corpus, error) {
	if backend == "" {
		return e.corpus, nil
	}
	if c, ok := e.corpora[backend]; ok {
		return c, nil
	}
	if index.Known(backend) {
		return nil, fmt.Errorf("%w: %q (loaded: %v; start serve with -backend %s)",
			ErrBackendNotLoaded, backend, e.Backends(), backend)
	}
	return nil, fmt.Errorf("%w: %q (known: %v)", ErrUnknownBackend, backend, index.Names())
}

// CorpusAdd fingerprints src and indexes it in every loaded serving corpus
// under id. A partial fingerprint is indexed even on parse errors (the
// ccd.AddSource contract); the parse error is returned for reporting. A
// persistence failure (errors.Is ErrPersist) means the entry was NOT
// indexed.
func (e *Engine) CorpusAdd(id, src string) error {
	return e.CorpusAddCtx(context.Background(), id, src)
}

// CorpusAddCtx is CorpusAdd carrying a request context: a traced ingest
// decomposes into fingerprint, per-backend insert and WAL fsync-wait spans.
func (e *Engine) CorpusAddCtx(ctx context.Context, id, src string) error {
	_, fsp := trace.Start(ctx, "match.fingerprint")
	fp, ferr := e.Fingerprint(src)
	fsp.End()
	if err := e.corpusAddDoc(ctx, index.Doc{ID: id, Source: src, FP: fp}); err != nil {
		return err
	}
	return ferr
}

// CorpusAddFingerprint indexes a precomputed fingerprint under id, skipping
// parsing entirely (bulk ingest of pre-fingerprinted corpora). Backends that
// need source (SmartEmbed) count it as a skip.
func (e *Engine) CorpusAddFingerprint(id string, fp ccd.Fingerprint) error {
	return e.corpusAddDoc(context.Background(), index.Doc{ID: id, FP: fp})
}

// CorpusAddFingerprintCtx is CorpusAddFingerprint carrying a request context.
func (e *Engine) CorpusAddFingerprintCtx(ctx context.Context, id string, fp ccd.Fingerprint) error {
	return e.corpusAddDoc(ctx, index.Doc{ID: id, FP: fp})
}

// corpusAddDoc fans one document out to every loaded backend corpus. The
// durable ccd corpus goes first: if its journaled add fails the document is
// nowhere; per-backend skips of the in-memory corpora are absorbed (they are
// counted on the corpus).
func (e *Engine) corpusAddDoc(ctx context.Context, doc index.Doc) error {
	ctx, sp := trace.Start(ctx, "corpus.add")
	defer sp.End()
	if err := e.corpus.AddDocCtx(ctx, doc); err != nil {
		return err
	}
	for name, c := range e.corpora {
		if name == index.BackendCCD {
			continue
		}
		_ = c.AddDoc(doc) // in-memory; unsupported docs are counted as skips
	}
	e.ctr.corpusAdds.Add(1)
	if e.clusters != nil {
		// Live clustering: the freshly published document (read-your-writes)
		// matches against the ccd corpus and its top clone edges land in the
		// union-find. Best-effort and additive — the /v1/study corpus mode
		// recomputes exactly.
		e.clusters.Add(doc.ID)
		// +1: the freshly published doc takes one slot with its self-match.
		// Trim back after the self-filter — on an exact-clone plateau the
		// doc's own ID can tie-break out of the k+1 slots, leaving k+1
		// non-self matches. WithoutCancel: the trace rides along, but a
		// disconnecting client cannot skip the cluster link of a journaled add.
		if ms, _, err := e.corpus.MatchDocTopK(context.WithoutCancel(ctx), doc, onlineClusterK+1); err == nil {
			edges := 0
			for _, m := range ms {
				if m.ID == doc.ID {
					continue
				}
				if edges == onlineClusterK {
					break
				}
				edges++
				e.clusters.Union(doc.ID, m.ID)
			}
		}
	}
	return nil
}

// --- corpus-wide clone study ----------------------------------------------------

// NewCloneStudy plans a corpus-wide clone self-join: documents enumerate
// from the durable ccd corpus and clone queries run against the named
// backend's serving corpus (empty = ccd itself). The join fans out through
// the engine's worker pool at ClassBackground — every per-document query
// yields to waiting interactive traffic, and the join's (shard, segment)
// checkpoints make the resulting pauses free. It is context-cancellable and
// resumable (see SelfJoin.Run).
func (e *Engine) NewCloneStudy(backend string, limit int) (*SelfJoin, error) {
	target, err := e.CorpusFor(backend)
	if err != nil {
		return nil, err
	}
	j, err := NewSelfJoin(e.corpus, target, limit)
	if err != nil {
		return nil, err
	}
	j.par = func(ctx context.Context, n int, fn func(int)) error {
		return e.MapCtx(WithClass(ctx, ClassBackground), n, fn)
	}
	return j, nil
}

// RunCloneStudy plans and runs a clone study to completion, folding its
// funnel into the engine's study metrics and returning the report with the
// topN largest clusters attached.
func (e *Engine) RunCloneStudy(ctx context.Context, backend string, limit, topN int) (*CloneReport, error) {
	j, err := e.NewCloneStudy(backend, limit)
	if err != nil {
		return nil, err
	}
	e.ctr.studiesStarted.Add(1)
	if err := j.Run(ctx); err != nil {
		e.ctr.observeStudy(j.Stats(), err)
		return nil, err
	}
	e.ctr.observeStudy(j.Stats(), nil)
	return j.Report(topN), nil
}

// Match fingerprints src and returns its clone candidates from the ccd
// serving corpus, best first.
func (e *Engine) Match(src string) ([]ccd.Match, error) {
	return e.MatchTopK(src, 0)
}

// MatchTopK fingerprints src and returns its k best clone candidates (k ≤ 0:
// all of them), best first.
func (e *Engine) MatchTopK(src string, k int) ([]ccd.Match, error) {
	ms, _, err := e.MatchSource(context.Background(), "", src, k)
	return ms, err
}

// MatchSource fingerprints src (through the cache) and scatter-gathers its k
// best candidates on the named backend's corpus. The returned stats are the
// query's pruning funnel; the error reports parse problems (matches still
// returned when a partial fingerprint exists), backend-routing failures, or
// ctx cancellation.
func (e *Engine) MatchSource(ctx context.Context, backend, src string, k int) ([]ccd.Match, ccd.MatchStats, error) {
	_, fsp := trace.Start(ctx, "match.fingerprint")
	fp, ferr := e.Fingerprint(src)
	fsp.AnnotateInt("source_bytes", int64(len(src)))
	fsp.End()
	if ferr != nil && len(fp) == 0 {
		return nil, ccd.MatchStats{}, ferr
	}
	ms, stats, err := e.MatchDoc(ctx, backend, index.Doc{Source: src, FP: fp}, k)
	if err != nil {
		// A budget-exhausted scan still carries its best-effort partial
		// matches; everything else fails empty.
		return ms, stats, err
	}
	return ms, stats, ferr
}

// MatchDoc scatter-gathers doc's k best candidates on the named backend's
// corpus (empty name: ccd). Latency and pruning counts feed the /metrics
// histogram; cancelled queries return ctx.Err() and are not observed as
// completed matches. A query whose deadline budget expires mid-scan returns
// its best-effort partial top-K alongside ErrBudgetExhausted — observed in
// the latency histogram (the client waited that long either way).
//
// At degradation tier ≥ 2 the scan runs with the raised pre-filter η, so
// fewer candidates survive to the expensive exact scoring.
func (e *Engine) MatchDoc(ctx context.Context, backend string, doc index.Doc, k int) ([]ccd.Match, ccd.MatchStats, error) {
	c, err := e.CorpusFor(backend)
	if err != nil {
		return nil, ccd.MatchStats{}, err
	}
	ctx, sp := trace.Start(ctx, "match")
	if backend != "" {
		sp.Annotate("backend", backend)
	}
	if tier := e.DegradeTier(); tier > 0 {
		sp.AnnotateInt("degrade.tier", int64(tier))
		if tier >= 2 && EtaOverrideOf(ctx) == 0 {
			ctx = WithEtaOverride(ctx, e.deg.raisedEta)
			e.ctr.etaRaised.Add(1)
		}
	}
	start := time.Now()
	ms, stats, err := c.MatchDocTopK(ctx, doc, k)
	sp.AnnotateInt("candidates", int64(stats.Candidates))
	sp.AnnotateInt("scored", int64(stats.Scored))
	sp.End()
	if errors.Is(err, ErrBudgetExhausted) {
		e.ctr.deadlineExpired.Add(1)
		e.ctr.observeMatch(stats, time.Since(start))
		return ms, stats, err
	}
	if err != nil {
		return nil, stats, err
	}
	e.ctr.observeMatch(stats, time.Since(start))
	return ms, stats, nil
}

// MatchFingerprint matches a precomputed fingerprint against the ccd serving
// corpus.
func (e *Engine) MatchFingerprint(fp ccd.Fingerprint) []ccd.Match {
	return e.MatchFingerprintTopK(fp, 0)
}

// MatchFingerprintTopK matches a precomputed fingerprint against the ccd
// serving corpus, returning the k best candidates (k ≤ 0: all). The call is
// lock-free against concurrent ingest.
func (e *Engine) MatchFingerprintTopK(fp ccd.Fingerprint, k int) []ccd.Match {
	ms, _, _ := e.MatchDoc(context.Background(), "", index.Doc{FP: fp}, k)
	return ms
}

// --- pooled batch helpers -----------------------------------------------------

// AnalyzeResult is one AnalyzeBatch element.
type AnalyzeResult struct {
	Report ccc.Report
	Err    error
}

// AnalyzeBatch analyzes every source across the worker pool, preserving
// input order.
func (e *Engine) AnalyzeBatch(srcs []string) []AnalyzeResult {
	out := make([]AnalyzeResult, len(srcs))
	e.Map(len(srcs), func(i int) {
		out[i].Report, out[i].Err = e.Analyze(srcs[i])
	})
	return out
}

// CorpusEntry is one document for bulk ingest: a source to fingerprint, or
// a precomputed Fingerprint (which wins when both are set).
type CorpusEntry struct {
	ID          string
	Source      string
	Fingerprint ccd.Fingerprint
}

// CorpusAddBatch ingests entries into the serving corpus across the worker
// pool. The i-th error reports the i-th entry's parse status (persistence
// failures satisfy errors.Is ErrPersist and mean the entry was dropped).
func (e *Engine) CorpusAddBatch(entries []CorpusEntry) []error {
	return e.CorpusAddBatchCtx(context.Background(), entries)
}

// CorpusAddBatchCtx is CorpusAddBatch carrying a request context; each
// entry's fingerprint/insert/fsync spans land in the request's trace (up to
// the trace's span cap). The context does not cancel journaled work.
func (e *Engine) CorpusAddBatchCtx(ctx context.Context, entries []CorpusEntry) []error {
	errs := make([]error, len(entries))
	e.Map(len(entries), func(i int) {
		if entries[i].Fingerprint != "" {
			errs[i] = e.CorpusAddFingerprintCtx(ctx, entries[i].ID, entries[i].Fingerprint)
		} else {
			errs[i] = e.CorpusAddCtx(ctx, entries[i].ID, entries[i].Source)
		}
	})
	return errs
}

// MatchBatch matches every source against the ccd serving corpus across the
// worker pool, preserving input order.
func (e *Engine) MatchBatch(srcs []string) ([][]ccd.Match, []error) {
	return e.MatchBatchTopK(srcs, 0)
}

// MatchBatchTopK matches every source across the worker pool, keeping the k
// best candidates per source (k ≤ 0: all), preserving input order.
func (e *Engine) MatchBatchTopK(srcs []string, k int) ([][]ccd.Match, []error) {
	out, errs, _ := e.MatchBatchCtx(context.Background(), "", srcs, k)
	return out, errs
}

// MatchBatchCtx matches every source on the named backend across the worker
// pool, preserving input order. A cancelled ctx stops dispatching further
// sources, cancels in-flight scatter-gathers at their next segment boundary,
// and is returned; per-source errors report parse problems. Backend-routing
// failures surface as the overall error before any work is dispatched.
func (e *Engine) MatchBatchCtx(ctx context.Context, backend string, srcs []string, k int) ([][]ccd.Match, []error, error) {
	if _, err := e.CorpusFor(backend); err != nil {
		return nil, nil, err
	}
	out := make([][]ccd.Match, len(srcs))
	errs := make([]error, len(srcs))
	mapErr := e.MapCtx(ctx, len(srcs), func(i int) {
		out[i], _, errs[i] = e.MatchSource(ctx, backend, srcs[i], k)
	})
	return out, errs, mapErr
}
