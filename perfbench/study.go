package main

import (
	"context"
	_ "embed"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/ccd"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/service"
)

// study: the paper's measurement in-process at scale 0.02, dataset seed 1 —
// pipeline.RunWith for Tables 4-8, then the exact corpus clone study through
// the serving-engine path (experiments.CloneStudy with viaService).
//
// study-online runs the same, followed by the online half of the question
// over the study's own corpus: "which deployed contracts contain this
// snippet?" for the unique snippets, each answer checked against an
// unsharded reference. It is not in BENCHMARK.json: the served top 10 loses
// a tie at the admission bound in some runs (see README.md, "Known
// defects"). Fold its online phase back into study once that is fixed.
const (
	studyScale = 0.02
	studySeed  = 1
	// studyRate is the fixed open-loop rate of the online phase: about half
	// of its closed-loop capacity with two clients on a 2-vCPU host (999 to
	// 1,294 req/s over six 3 s loops, median about 1,100 req/s).
	studyRate = 550.0
	// studyOnline is the online phase's open-loop duration.
	studyOnline = 7 * time.Second
)

// studyGolden is the seed's soddstudy -table study -scale 0.02 -service
// output: Tables 4-8 followed by the clone-study report.
//
//go:embed golden/study-s0.02.txt
var studyGolden string

// studyInput is one generated study dataset with its engine.
type studyInput struct {
	qa        dataset.QACorpus
	contracts []dataset.DeployedContract
	cfg       pipeline.Config
}

// setupStudy generates the dataset and constructs the engine (setup_s).
func setupStudy() studyInput {
	cfg := pipeline.DefaultConfig()
	cfg.Seed, cfg.Scale = studySeed, studyScale
	qa := dataset.GenerateQA(dataset.QAConfig{Seed: cfg.Seed, Scale: cfg.Scale})
	contracts := dataset.GenerateSanctuary(dataset.SanctuaryConfig{Seed: cfg.Seed + 1, Scale: cfg.Scale}, qa)
	cfg.Engine = service.New(service.Options{CCD: cfg.CCD})
	return studyInput{qa: qa, contracts: contracts, cfg: cfg}
}

// checkStudy compares the study's output with the seed's values. It
// returns a description of the first mismatch, or "".
func checkStudy(res *pipeline.Result, crep *service.CloneReport, wrongRef bool) string {
	f := res.Funnel
	want := map[string][2]int{
		"unique snippets":      {f.UniqueSnippets, 419},
		"vulnerable snippets":  {f.VulnerableSnippets, 140},
		"unique contracts":     {f.UniqueContracts, 672},
		"vulnerable contracts": {f.VulnerableContracts, 672},
		"clone clusters":       {crep.Summary.Clusters, 58},
		"largest cluster":      {crep.Summary.Largest, 3471},
	}
	for name, v := range want {
		if wrongRef {
			v[1]++
		}
		if v[0] != v[1] {
			return fmt.Sprintf("%s = %d, want %d", name, v[0], v[1])
		}
	}
	if got := experiments.RenderStudy(res) + "\n" + experiments.RenderCloneStudy(crep) + "\n"; got != studyGolden {
		return "rendered Tables 4-8 / clone study differ from golden/study-s0.02.txt"
	}
	return ""
}

func timedStudy(cfg config, rep *report) error { return runStudy(cfg, rep, false) }

func timedStudyOnline(cfg config, rep *report) error { return runStudy(cfg, rep, true) }

// runStudy times the study; online adds the checked online phase.
func runStudy(cfg config, rep *report, online bool) error {
	var setups []float64
	var in studyInput
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		in = setupStudy()
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.gate("setup_s", "s", median(setups), len(setups))

	pid := os.Getpid()
	cpu0, err := procCPU(pid)
	if err != nil {
		return err
	}
	start := time.Now()
	res := pipeline.RunWith(in.cfg, in.qa, in.contracts)
	tables := time.Since(start)
	start = time.Now()
	crep, err := experiments.CloneStudy(in.cfg.Engine, res.Contracts, in.cfg.CCD, true, 0)
	if err != nil {
		return err
	}
	clone := time.Since(start)
	cpu1, err := procCPU(pid)
	if err != nil {
		return err
	}
	rep.attempted++
	if msg := checkStudy(res, crep, cfg.wrongRef); msg != "" {
		rep.failed++
		rep.wrong++
		rep.note("study output wrong: %s", msg)
	}
	if online {
		studyOnlinePhase(cfg, rep, in, res)
	}
	rss, err := procHWM(pid)
	if err != nil {
		return err
	}

	docs := float64(len(in.qa.Snippets) + len(in.contracts))
	rep.add("cpu_ms_per_op", "ms", ms(cpu1-cpu0)/docs, int(docs))
	rep.gate("rss_mb", "MiB", rss, 1)
	rep.add("docs_per_s", "1/s", docs/(tables+clone).Seconds(), int(docs))
	rep.add("tables_s", "s", tables.Seconds(), 1)
	rep.add("clone_study_s", "s", clone.Seconds(), 1)
	rep.add("failed_share", "ratio", ratio(float64(rep.failed), float64(rep.attempted)), rep.attempted)
	return nil
}

// studyUnique returns the sources of the study's unique snippets.
func studyUnique(res *pipeline.Result) []string {
	srcs := make([]string, len(res.Unique))
	for i, u := range res.Unique {
		srcs[i] = u.Source
	}
	return srcs
}

// studyOnlinePhase asks the engine, open loop, which of the study's
// contracts contain each drawn unique snippet, and checks every answer.
func studyOnlinePhase(cfg config, rep *report, in studyInput, res *pipeline.Result) {
	eng := in.cfg.Engine
	ref := newStudyReference(eng, res.Contracts, in.cfg.CCD, cfg.wrongRef)
	srcs := studyUnique(res)
	pick := drawer(cfg.seed, 1, len(srcs))
	open := openLoop(poisson(cfg.seed, studyRate, studyOnline), conns(), 30*time.Second, func(i int, o *outcome) {
		engineMatch(eng, srcs[pick(i)], ref, o)
	})
	countOutcomes(rep, open)
	rep.latency("match", latencies(open.outcomes, "match"))
	lates := lateMs(open.outcomes)
	rep.add("gen.late_p98_ms", "ms", quantile(lates, 0.98), len(lates))
	rep.add("gen.backlog_max", "count", float64(open.backlogMax), len(open.outcomes))
	rep.add("gen.repeat_share", "ratio", repeatShare(pick, len(open.outcomes)), len(open.outcomes))
	if open.lateGrew {
		rep.note("generator lateness grew during the open loop: this run's latencies are invalid")
	}
}

// engineMatch answers one online query through the engine's worker pool,
// like the API's /v1/match handler, and defers the answer check.
func engineMatch(eng *service.Engine, src string, ref *studyReference, o *outcome) {
	o.kind = "match"
	ctx := context.Background()
	var ms []ccd.Match
	var err error
	derr := eng.DoCtx(ctx, func() { ms, _, err = eng.MatchSource(ctx, "", src, topK) })
	o.end = time.Now()
	if derr != nil || err != nil {
		o.err = true
		return
	}
	o.check = func() string { return checkMatch(matchResponse{Matches: ms}, ref.answer(src), true) }
}

// studyReference answers online queries independently: an unsharded
// ccd.Corpus.Match over the study's contracts, sorted.
type studyReference struct {
	eng      *service.Engine
	once     sync.Once
	contract []dataset.DeployedContract
	cfg      ccd.Config
	corpus   *ccd.Corpus
	wrong    bool
	mu       sync.Mutex
	cache    map[string][]ccd.Match
}

func newStudyReference(eng *service.Engine, cs []dataset.DeployedContract, cfg ccd.Config, wrong bool) *studyReference {
	return &studyReference{eng: eng, contract: cs, cfg: cfg, wrong: wrong, cache: map[string][]ccd.Match{}}
}

func (r *studyReference) answer(src string) []ccd.Match {
	r.once.Do(func() {
		r.corpus = ccd.NewCorpus(r.cfg)
		for _, c := range r.contract {
			fp, _ := r.eng.Fingerprint(c.Source) // cached from the study's own run
			r.corpus.Add(c.Address, fp)
		}
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	if ms, ok := r.cache[src]; ok {
		return ms
	}
	fp, _ := ccd.FingerprintSource(src)
	ms := r.corpus.Match(fp)
	ccd.SortMatches(ms)
	if r.wrong {
		ms = append([]ccd.Match{{ID: "no-such-contract", Score: 100}}, ms...)
	}
	r.cache[src] = ms
	return ms
}
