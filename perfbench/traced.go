package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/ccc"
	"repro/internal/ccd"
	"repro/internal/cpg"
	"repro/internal/dataset"
	"repro/internal/ngram"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/remote"
	"repro/internal/service"
	"repro/internal/service/api"
	"repro/internal/solidity"
)

// perLayer reads the per-layer metrics a traced run prints, in order, from
// the per_layer list of the checkout's BENCHMARK.json.
func perLayer(root string) ([]metric, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(spec.PerLayer) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json lists no per_layer metrics")
	}
	out := make([]metric, len(spec.PerLayer))
	for i, m := range spec.PerLayer {
		out[i] = metric{Name: m.Name, Unit: m.Unit}
	}
	return out, nil
}

// tracedReplay is the length of each of a traced run's two replays (untraced
// and traced): half the timed run's open loop, on the same schedule.
func tracedReplay(seconds int) time.Duration {
	open, _ := phaseDurations(seconds)
	return open / 2
}

// sweepSample bounds how many inputs each uncontended layer sweep times.
const sweepSample = 150

// studySweeps is how many times a traced study runs its analysis sweep
// untraced and traced (about 0.2 s each).
const studySweeps = 7

// restoreEngine copies a fixture snapshot into dir and attaches a durable
// store to a fresh engine's corpus, timing OpenStoreWith.
func restoreEngine(snap, dir string, opts service.Options) (*service.Engine, *service.Store, time.Duration, error) {
	if err := copyFile(snap, filepath.Join(dir, service.SnapshotFile)); err != nil {
		return nil, nil, 0, err
	}
	eng := service.New(opts)
	start := time.Now()
	st, err := service.OpenStoreWith(dir, eng.Corpus(), service.StoreOptions{})
	return eng, st, time.Since(start), err
}

// readSweep times the read-path layers one uncontended call at a time on
// the same queries: the unsharded ccd scan, the n-gram pre-filter, the
// sharded service corpus, the engine's fingerprint cache over the replayed
// source stream, and the HTTP handler against the engine call it wraps. It
// returns the handler's self time (handler − engine call, µs) per query.
func readSweep(tr *tracer, eng *service.Engine, entries []ccd.Entry, cfg ccd.Config, srcs, stream []string, values map[string]metric) []float64 {
	ref := ccd.NewCorpus(cfg)
	ix := ngram.New(cfg.N)
	for _, e := range entries {
		ref.Add(e.ID, e.FP)
		ix.Add(e.ID, string(e.FP))
	}
	var over []float64
	for i, src := range srcs {
		fp, _ := ccd.FingerprintSource(src)
		req := int64(-1 - i)
		var cms []ccd.Match
		var cst ccd.MatchStats
		t0 := time.Now()
		tr.do(req, -1, "ccd.match", func() { cms, cst = ref.MatchTopKStats(fp, topK) })
		cd := time.Since(t0)
		t0 = time.Now()
		tr.do(req, -1, "service.match.sweep", func() { eng.Corpus().MatchTopK(fp, topK) })
		over = append(over, us(time.Since(t0)-cd))
		tr.count("ccd.candidates", float64(cst.Candidates))
		tr.count("ccd.scored", float64(cst.Scored))
		tr.count("ccd.cutoff_skipped", float64(cst.CutoffSkipped))
		if cst.Scored > 0 {
			tr.count("ccd.useful_share", float64(len(cms))/float64(cst.Scored))
		}
		var nst ngram.Stats
		grams := ngram.Grams(string(fp), cfg.N)
		tr.do(req, -1, "ngram.query", func() { _, nst = ix.QueryGrams(grams, cfg.Eta) })
		tr.count("ngram.candidates", float64(nst.Candidates))
		if nst.Candidates > 0 {
			tr.count("ngram.kept_share", float64(nst.Kept)/float64(nst.Candidates))
		}
	}
	values["service.shard_overhead_us"] = metric{Value: mean(over), N: len(over)}
	values["service.match_us"] = spanMean(tr, "service.match.sweep")

	before := eng.Metrics().FingerprintCache
	for _, src := range stream {
		eng.Fingerprint(src)
	}
	after := eng.Metrics().FingerprintCache
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	values["service.fp_cache_hit_share"] = metric{Value: ratio(float64(hits), float64(hits+misses)), N: int(hits + misses)}

	h := api.NewServer(eng).Handler()
	ctx := context.Background()
	var self []float64
	for i, src := range srcs {
		req := int64(-10000 - i)
		eng.Fingerprint(src) // both timed calls below see a warm cache
		body, _ := json.Marshal(map[string]any{"source": src, "limit": topK})
		t0 := time.Now()
		tr.do(req, -1, "api.match", func() {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/match", bytes.NewReader(body)))
		})
		hd := time.Since(t0)
		t0 = time.Now()
		eng.DoCtx(ctx, func() { eng.MatchSource(ctx, "", src, topK) })
		self = append(self, us(hd-time.Since(t0)))
	}
	return self
}

// gatherCommon copies the spans and counts every workload's replay yields
// into values.
func gatherCommon(tr *tracer, values map[string]metric) {
	for name, span := range map[string]string{
		"solidity.parse_us":      "solidity.parse",
		"ccd.normalize_us":       "ccd.normalize",
		"ccd.fingerprint_us":     "ccd.fingerprint",
		"ccd.match_us":           "ccd.match",
		"ngram.query_us":         "ngram.query",
		"api.match_us":           "api.match",
		"api.ingest_us":          "api.ingest",
		"service.ingest_us":      "service.ingest",
		"cpg.build_us":           "cpg.build",
		"ccc.analyze_us":         "ccc.analyze",
		"ccc.validate_us":        "ccc.validate",
		"service.add_us":         "service.add",
		"service.durable_add_us": "service.durable_add",
		"remote.fanout_us":       "remote.fanout",
	} {
		if _, set := values[name]; !set {
			values[name] = spanMean(tr, span)
		}
	}
	for _, name := range []string{
		"ccd.candidates", "ccd.scored", "ccd.cutoff_skipped", "ccd.useful_share",
		"ngram.candidates", "ngram.kept_share", "service.segments", "service.queue_wait_us",
		"cpg.nodes", "ccc.truncated_share", "solidity.parse_fail_share",
		"remote.scored", "remote.partial_share",
	} {
		if _, set := values[name]; !set {
			values[name] = countMean(tr, name)
		}
	}
}

// finishTraced writes the spans and prints the per-layer report.
func finishTraced(cfg config, rep *report, tr *tracer, values map[string]metric) error {
	gatherCommon(tr, values)
	rep.add("trace.spans", "count", float64(len(tr.spans)), len(tr.spans))
	if err := tr.write(tracePath(cfg)); err != nil {
		return err
	}
	rep.note("spans written to %s", tracePath(cfg))
	layerReport(rep, tr, cfg.layers, values)
	return nil
}

// --- match-read ----------------------------------------------------------------------

func tracedMatchRead(cfg config, rep *report) error {
	f, err := loadFixture(cfg, matchReadScale, true)
	if err != nil {
		return err
	}
	if cfg.wrongRef {
		perturb(f.Refs)
	}
	runDir := cfg.work("runs", fmt.Sprintf("match-read-traced-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	values := map[string]metric{}
	opts := service.Options{CCD: ccd.DefaultConfig}
	eng, st, restore, err := restoreEngine(f.snapshot(), filepath.Join(runDir, "node"), opts)
	if err != nil {
		return err
	}
	defer st.Close()
	values["service.restore_ms"] = metric{Value: ms(restore), N: 1}

	openDur := tracedReplay(cfg.seconds)
	pick := drawer(cfg.seed, 1, len(f.Queries))
	tr := newTracer(true)
	run := func(c *composed) loopStats {
		return replay(cfg.seed, matchReadRate, openDur, func(i int, o *outcome) {
			qi := pick(i)
			ref, hasRef := f.Refs[qi]
			c.match(f.Queries[qi].Source, o, func(ms []ccd.Match) string {
				return checkMatch(matchResponse{Matches: ms}, ref, hasRef)
			})
		})
	}
	warm(eng, f.Queries)
	untraced := run(&composed{eng: eng, tr: newTracer(false)})
	traced := run(&composed{eng: eng, tr: tr})
	countOutcomes(rep, untraced, traced)
	overhead(rep, values, "match", untraced, traced)
	values["gen.repeat_share"] = metric{Value: repeatShare(pick, len(traced.outcomes)), N: len(traced.outcomes)}

	srcs, stream := sweepInputs(f.Queries, pick, len(traced.outcomes))
	self := readSweep(tr, eng, corpusEntries(eng.Corpus()), ccd.DefaultConfig, srcs, stream, values)
	values["api.self_us"] = metric{Value: median(self), N: len(self)}
	if err := remoteSweep(tr, f, pick, rep, values); err != nil {
		return err
	}
	return finishTraced(cfg, rep, tr, values)
}

// warm runs the composed match path untraced for a moment before the
// measured replays, so neither replay pays for first-touch page faults of
// the mapped corpus or the heap's initial growth.
func warm(eng *service.Engine, qs []input) {
	c := &composed{eng: eng, tr: newTracer(false)}
	closedLoop(2*time.Second, conns(), func(i int, o *outcome) {
		c.match(qs[(i*7919)%len(qs)].Source, o, nil)
	})
}

// sweepInputs returns the first sweepSample distinct replayed queries and
// the full replayed source stream.
func sweepInputs(qs []input, pick func(int) int, n int) (sample, stream []string) {
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		qi := pick(i)
		stream = append(stream, qs[qi].Source)
		if !seen[qi] && len(sample) < sweepSample {
			seen[qi] = true
			sample = append(sample, qs[qi].Source)
		}
	}
	return sample, stream
}

// remoteSweep serves the fixture's two ring partitions from in-process
// shard servers and times remote.Router.Match over them. Answers of
// reference queries must equal the reference top 10.
func remoteSweep(tr *tracer, f *fixture, pick func(int) int, rep *report, values map[string]metric) error {
	var targets []string
	for i := 0; i < 2; i++ {
		eng := service.New(service.Options{CCD: ccd.DefaultConfig})
		if err := eng.Corpus().OpenSnapshotFile(filepath.Join(f.partition(i), service.SnapshotFile)); err != nil {
			return err
		}
		ts := httptest.NewServer(api.NewServer(eng, api.WithPartition(i, 2)).Handler())
		defer ts.Close()
		targets = append(targets, ts.URL)
	}
	router := remote.NewRouter(remote.Config{Targets: targets, Epsilon: ccd.DefaultConfig.Epsilon})
	ctx := context.Background()
	seen := map[int]bool{}
	queries := 0
	for i := 0; queries < sweepSample && i < 4*sweepSample; i++ {
		qi := pick(i)
		if seen[qi] {
			continue
		}
		seen[qi] = true
		queries++
		fp, _ := ccd.FingerprintSource(f.Queries[qi].Source)
		var res remote.Result
		var err error
		tr.do(int64(-20000-i), -1, "remote.fanout", func() { res, err = router.Match(ctx, string(fp), topK) })
		o := outcome{kind: "match", err: err != nil}
		if err == nil {
			ref, hasRef := f.Refs[qi]
			m := matchResponse{Matches: res.Matches, Partial: res.Partial}
			if res.Degraded {
				m.Degraded = []string{"router"}
			}
			o.judge(checkMatch(m, ref, hasRef))
			tr.count("remote.scored", float64(res.Stats.Scored))
			partial := 0.0
			if res.Partial {
				partial = 1
			}
			tr.count("remote.partial_share", partial)
		}
		rep.count(o)
	}
	values["remote.bound_savings"] = metric{Value: ratio(float64(router.Stats().BoundShipSavings), float64(queries)), N: queries}
	return nil
}

// --- ingest-mixed ------------------------------------------------------------------

func tracedIngestMixed(cfg config, rep *report) error { return tracedIngest(cfg, rep, ingestMixed) }

func tracedIngestAnalyze(cfg config, rep *report) error { return tracedIngest(cfg, rep, ingestAnalyze) }

func tracedIngest(cfg config, rep *report, mix opMix) error {
	f, err := loadFixture(cfg, ingestScale, false)
	if err != nil {
		return err
	}
	contracts := newContracts(cfg.seed)
	runDir := cfg.work("runs", fmt.Sprintf("%s-traced-%d", cfg.workload, os.Getpid()))
	defer os.RemoveAll(runDir)
	values := map[string]metric{}
	opts := service.Options{CCD: ccd.DefaultConfig, TrackClusters: true}

	openDur := tracedReplay(cfg.seconds)
	kind := drawer(cfg.seed, 1, 1_000_000)
	pick := drawer(cfg.seed, 101, len(f.Queries))
	tr := newTracer(true)
	// Each replay gets its own node restored from the fixture, so both
	// ingest the same new contracts into the same starting corpus.
	run := func(name string, t *tracer) (loopStats, *service.Engine, *service.Store, error) {
		eng, st, restore, err := restoreEngine(f.snapshot(), filepath.Join(runDir, name), opts)
		if err != nil {
			return loopStats{}, nil, nil, err
		}
		if t.on {
			values["service.restore_ms"] = metric{Value: ms(restore), N: 1}
		}
		warm(eng, f.Queries)
		c := &composed{eng: eng, tr: t}
		var next atomic.Int64
		return replay(cfg.seed, ingestRate, openDur, func(i int, o *outcome) {
			switch mix.kind(kind, i) {
			case "ingest":
				c.ingest(contracts[int(next.Add(1)-1)%len(contracts)], o)
			case "match":
				c.match(f.Queries[pick(i)].Source, o, func(ms []ccd.Match) string {
					return checkMatch(matchResponse{Matches: ms}, nil, false)
				})
			default:
				c.analyze(f.Queries[pick(i)].Source, o)
			}
		}), eng, st, nil
	}
	untraced, engA, stA, err := run("untraced", newTracer(false))
	if err != nil {
		return err
	}
	defer stA.Close()
	traced, _, stB, err := run("traced", tr)
	if err != nil {
		return err
	}
	stB.Close()
	countOutcomes(rep, untraced, traced)
	overhead(rep, values, "ingest", untraced, traced)

	var srcs, stream []string
	for i := range traced.outcomes {
		if mix.kind(kind, i) == "match" {
			stream = append(stream, f.Queries[pick(i)].Source)
			if len(srcs) < sweepSample {
				srcs = append(srcs, f.Queries[pick(i)].Source)
			}
		}
	}
	self := readSweep(tr, engA, corpusEntries(engA.Corpus()), ccd.DefaultConfig, srcs, stream, values)
	return finishIngest(cfg, rep, tr, f, engA, contracts, runDir, self, values)
}

// finishIngest times the write-path layers uncontended on fresh contract
// ids: a plain corpus add, a durable add through an attached store (with
// its fsync and publish counts), and the ingest handler against the engine
// call it wraps (its self time joins the read sweep's in api.self_us).
func finishIngest(cfg config, rep *report, tr *tracer, f *fixture, eng *service.Engine, contracts []input, runDir string, self []float64, values map[string]metric) error {
	sample := contracts[:min(sweepSample, len(contracts))]
	fps := make([]ccd.Fingerprint, len(sample))
	for i, c := range sample {
		fps[i], _ = ccd.FingerprintSource(c.Source)
	}
	plain := service.NewCorpus(ccd.DefaultConfig, 0)
	if err := plain.OpenSnapshotFile(f.snapshot()); err != nil {
		return err
	}
	for i, c := range sample {
		tr.do(int64(-30000-i), -1, "service.add", func() { plain.Add("sweep/"+c.ID, fps[i]) })
	}
	durable := service.NewCorpus(ccd.DefaultConfig, 0)
	dir := filepath.Join(runDir, "durable")
	if err := copyFile(f.snapshot(), filepath.Join(dir, service.SnapshotFile)); err != nil {
		return err
	}
	st, err := service.OpenStoreWith(dir, durable, service.StoreOptions{})
	if err != nil {
		return err
	}
	fs0, pub0 := st.Durability().FsyncLatency.Count, durable.Publishes()
	for i, c := range sample {
		tr.do(int64(-40000-i), -1, "service.durable_add", func() { durable.Add("sweep/"+c.ID, fps[i]) })
	}
	n := float64(len(sample))
	values["service.fsyncs_per_add"] = metric{Value: float64(st.Durability().FsyncLatency.Count-fs0) / n, N: len(sample)}
	values["service.publishes_per_add"] = metric{Value: float64(durable.Publishes()-pub0) / n, N: len(sample)}
	st.Close()

	h := api.NewServer(eng).Handler()
	ctx := context.Background()
	for i, c := range sample {
		eng.Fingerprint(c.Source)
		body, _ := json.Marshal(map[string]any{"entries": []input{{ID: "api/" + c.ID, Source: c.Source}}})
		t0 := time.Now()
		rec := httptest.NewRecorder()
		tr.do(int64(-50000-i), -1, "api.ingest", func() {
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/corpus", bytes.NewReader(body)))
		})
		hd := time.Since(t0)
		t0 = time.Now()
		err := eng.CorpusAddCtx(ctx, "engine/"+c.ID, c.Source)
		self = append(self, us(hd-time.Since(t0)))
		rep.count(outcome{kind: "ingest", err: rec.Code != http.StatusOK || err != nil})
	}
	values["api.self_us"] = metric{Value: median(self), N: len(self)}
	return finishTraced(cfg, rep, tr, values)
}

// analyze composes one /v1/analyze request: parse → CPG → CCC.
func (c *composed) analyze(src string, o *outcome) {
	c.request("analyze", o, func(req int64, root int) bool {
		var unit *solidity.SourceUnit
		var g *cpg.Graph
		c.tr.do(req, root, "solidity.parse", func() { unit, _ = solidity.Parse(src) })
		c.tr.do(req, root, "cpg.build", func() { g = cpg.Build(src, unit) })
		c.tr.count("cpg.nodes", float64(len(g.Nodes)))
		c.tr.do(req, root, "ccc.analyze", func() { ccc.NewAnalyzer().Analyze(g) })
		return true
	})
}

// --- study ------------------------------------------------------------------------------

func tracedStudy(cfg config, rep *report) error { return traceStudy(cfg, rep, false) }

func tracedStudyOnline(cfg config, rep *report) error { return traceStudy(cfg, rep, true) }

// traceStudy traces the study; online replays the checked online phase too.
func traceStudy(cfg config, rep *report, online bool) error {
	values := map[string]metric{}
	tr := newTracer(true)
	in := setupStudy()
	eng := in.cfg.Engine

	var res *pipeline.Result
	tr.do(-1, -1, "pipeline.run", func() { res = pipeline.RunWith(in.cfg, in.qa, in.contracts) })
	values["pipeline.run_s"] = metric{Value: spanMean(tr, "pipeline.run").Value / 1e6, N: 1}

	// The analysis sweep runs once to warm up, then untraced and traced in
	// turn: the difference of the two median wall times is the tracing
	// overhead of the offline path.
	studyLayers(newTracer(false), in, res)
	var plain, spanned []float64
	for k := 0; k < studySweeps; k++ {
		start := time.Now()
		studyLayers(newTracer(false), in, res)
		plain = append(plain, time.Since(start).Seconds())
		start = time.Now()
		studyLayers(tr, in, res)
		spanned = append(spanned, time.Since(start).Seconds())
	}
	up, tp := median(plain), median(spanned)
	rep.add("untraced.sweep_s", "s", up, len(plain))
	rep.add("traced.sweep_s", "s", tp, len(spanned))
	values["trace.overhead_share"] = metric{Value: ratio(tp-up, up), N: len(spanned)}

	// The clone study through the serving engine, as experiments.CloneStudy
	// runs it, with the self-join timed on its own.
	for _, c := range res.Contracts {
		fp, _ := eng.Fingerprint(c.Source)
		if err := eng.CorpusAddFingerprint(c.Address, fp); err != nil {
			return err
		}
	}
	j, err := eng.NewCloneStudy("", 0)
	if err != nil {
		return err
	}
	start := time.Now()
	if err := j.Run(context.Background()); err != nil {
		return err
	}
	values["service.selfjoin_s"] = metric{Value: time.Since(start).Seconds(), N: 1}
	js := j.Stats()
	values["service.selfjoin_candidates"] = metric{Value: float64(js.Candidates), N: int(js.Queried)}
	values["service.selfjoin_scored"] = metric{Value: float64(js.Scored), N: int(js.Queried)}
	values["service.selfjoin_useful_share"] = metric{Value: ratio(float64(js.Matches), float64(js.Scored)), N: int(js.Scored)}
	sum := j.Report(10).Summary
	wantClusters, wantLargest := 58, 3471
	if cfg.wrongRef {
		wantClusters++
	}
	rep.attempted++
	if sum.Clusters != wantClusters || sum.Largest != wantLargest {
		rep.failed++
		rep.wrong++
		rep.note("clone study: %d clusters, largest %d; want %d, %d", sum.Clusters, sum.Largest, wantClusters, wantLargest)
	}

	srcs := studyUnique(res)
	if !online {
		// The read layers over the study's corpus, one unique snippet at a
		// time; no request path is replayed.
		sample, stream := sweepInputs(queriesOf(srcs), func(i int) int { return i }, len(srcs))
		self := readSweep(tr, eng, corpusEntries(eng.Corpus()), in.cfg.CCD, sample, stream, values)
		values["api.self_us"] = metric{Value: median(self), N: len(self)}
		return finishTraced(cfg, rep, tr, values)
	}

	ref := newStudyReference(eng, res.Contracts, in.cfg.CCD, cfg.wrongRef)
	pick := drawer(cfg.seed, 1, len(srcs))
	run := func(c *composed) loopStats {
		return replay(cfg.seed, studyRate, studyOnline, func(i int, o *outcome) {
			src := srcs[pick(i)]
			c.match(src, o, func(ms []ccd.Match) string {
				return checkMatch(matchResponse{Matches: ms}, ref.answer(src), true)
			})
		})
	}
	warm(eng, queriesOf(srcs))
	untraced := run(&composed{eng: eng, tr: newTracer(false)})
	traced := run(&composed{eng: eng, tr: tr})
	countOutcomes(rep, untraced, traced)
	overhead(rep, values, "match", untraced, traced)
	values["gen.repeat_share"] = metric{Value: repeatShare(pick, len(traced.outcomes)), N: len(traced.outcomes)}

	sample, stream := sweepInputs(queriesOf(srcs), pick, len(traced.outcomes))
	self := readSweep(tr, eng, corpusEntries(eng.Corpus()), in.cfg.CCD, sample, stream, values)
	values["api.self_us"] = metric{Value: median(self), N: len(self)}
	return finishTraced(cfg, rep, tr, values)
}

func queriesOf(srcs []string) []input {
	qs := make([]input, len(srcs))
	for i, s := range srcs {
		qs[i] = input{Source: s}
	}
	return qs
}

// studyLayers times the analysis layers on the study's own inputs: the
// parser over every Solidity-like Q&A snippet, CPG construction and the
// default CCC analyzer over the unique snippets, and the phase-1 validation
// (category-limited, step-budgeted) over the vulnerable snippets' cloned
// contracts.
func studyLayers(tr *tracer, in studyInput, res *pipeline.Result) {
	req := int64(-100000)
	for _, s := range in.qa.Snippets {
		if !dataset.IsSolidityLike(s.Source) {
			continue
		}
		var err error
		tr.do(req, -1, "solidity.parse", func() { _, err = solidity.Parse(s.Source) })
		fail := 0.0
		if err != nil {
			fail = 1
		}
		tr.count("solidity.parse_fail_share", fail)
		req--
	}
	for _, u := range res.Unique {
		unit, _ := solidity.Parse(u.Source)
		var g *cpg.Graph
		tr.do(req, -1, "cpg.build", func() { g = cpg.Build(u.Source, unit) })
		tr.count("cpg.nodes", float64(len(g.Nodes)))
		tr.do(req, -1, "ccc.analyze", func() { ccc.NewAnalyzer().Analyze(g) })
		req--
	}
	pairs := 0
	for _, u := range res.Unique {
		if !u.Vulnerable() {
			continue
		}
		for _, m := range res.CloneMap[u.ID] {
			if pairs >= 2*sweepSample {
				return
			}
			pairs++
			unit, _ := solidity.Parse(m.Contract.Source)
			g := cpg.Build(m.Contract.Source, unit)
			a := &ccc.Analyzer{Limits: query.Limits{MaxSteps: in.cfg.Phase1Steps}}
			a.OnlyCategories(u.Categories...)
			var r ccc.Report
			tr.do(req, -1, "ccc.validate", func() { r = a.Analyze(g) })
			trunc := 0.0
			if r.Truncated {
				trunc = 1
			}
			tr.count("ccc.truncated_share", trunc)
			req--
		}
	}
}
