package main

import (
	"fmt"
	"net/http"
	"os"
	"time"
)

// match-read: one node restored (mmap) from the scale-0.3 snapshot serving
// read-only /v1/match top-10 queries drawn from the same seed's parsable Q&A
// snippets. The pool (about 6.3k) is larger than the engine's 4,096-entry
// caches, so fingerprints are recomputed for most queries.
const (
	matchReadScale = 0.3
	// matchReadRate is the fixed open-loop rate: about half of the node's
	// closed-loop capacity with two clients on a 2-vCPU host (about 72
	// req/s).
	matchReadRate = 36.0
	// matchReadLimit is the closed-loop latency limit counted by capacity_rps.
	matchReadLimit = 500 * time.Millisecond
)

// mix64 is splitmix64: a seeded, stateless hash used for query draws, so
// operation i of a seed always picks the same input.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// drawer returns pick(i) in [0, n) for operation i of a phase; phase keeps
// the open-loop, closed-loop and warm-up draws independent.
func drawer(seed int64, phase uint64, n int) func(int) int {
	return func(i int) int {
		return int(mix64(uint64(seed)*0x100000001b3^phase<<56^uint64(int64(i))) % uint64(n))
	}
}

// repeatShare is the share of draws 0..n-1 that repeat an earlier draw.
func repeatShare(pick func(int) int, n int) float64 {
	seen := map[int]bool{}
	rep := 0
	for i := 0; i < n; i++ {
		q := pick(i)
		if seen[q] {
			rep++
		}
		seen[q] = true
	}
	return ratio(float64(rep), float64(n))
}

func timedMatchRead(cfg config, rep *report) error {
	f, err := loadFixture(cfg, matchReadScale, true)
	if err != nil {
		return err
	}
	if cfg.wrongRef {
		perturb(f.Refs)
	}
	rep.add("fixture_build_s", "s", f.BuildS, 1)
	rep.add("fixture_entries", "count", float64(f.Entries), 1)
	runDir := cfg.work("runs", fmt.Sprintf("match-read-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	srv, err := bootNodes(cfg, runDir, f.snapshot(), rep)
	if err != nil {
		return err
	}
	defer srv.kill()

	hc := newHTTPClient(conns())
	openPick := drawer(cfg.seed, 1, len(f.Queries))
	closedPick := drawer(cfg.seed, 2, len(f.Queries))
	plan := servingPlan{
		rate:   matchReadRate,
		limit:  matchReadLimit,
		open:   httpMatch(hc, srv, f.Queries, f.Refs, openPick),
		closed: httpMatch(hc, srv, f.Queries, f.Refs, closedPick),
	}
	open, err := runServing(cfg, rep, plan, srv)
	if err != nil {
		return err
	}
	rep.add("gen.repeat_share", "ratio", repeatShare(openPick, len(open.outcomes)), len(open.outcomes))
	checkReference(hc, srv, f, rep)
	return nil
}

// checkReference sends every reference query once more and compares the
// answers with the reference; the load phases already checked whichever
// reference queries they happened to draw.
func checkReference(hc *http.Client, srv *server, f *fixture, rep *report) {
	var idx []int
	for i := range f.Refs {
		idx = append(idx, i)
	}
	st := closedLoopN(len(idx), conns(), httpMatch(hc, srv, f.Queries, f.Refs, func(i int) int { return idx[i] }))
	wrong := 0
	for _, o := range st.outcomes {
		rep.count(o)
		if o.failed() {
			wrong++
		}
	}
	rep.add("reference_checked", "count", float64(len(st.outcomes)), len(st.outcomes))
	if wrong > 0 {
		rep.note("%d of %d reference queries answered wrong", wrong, len(st.outcomes))
	}
}
