package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/ccd"
	"repro/internal/dataset"
	"repro/internal/remote"
	"repro/internal/service"
	"repro/internal/solidity"
)

// The serving fixtures are generated with dataset seed 1, like the default
// of cmd/gencorpus; a run's --seed only drives its arrivals and query draws.
const fixtureSeed = 1

// refSample is how many pool queries get an independent reference answer.
const refSample = 200

// fixture is a serving corpus snapshot plus what the benchmark derives from
// it. It is built by the measured code itself and cached under .bench_build,
// keyed by a hash of that code (codeHash); building it is never part of a
// timed span or setup_s.
type fixture struct {
	dir     string
	Entries int     `json:"entries"`
	BuildS  float64 `json:"build_s"`
	// Queries is the pool of parsable Q&A snippets of the same seed and
	// scale, in generation order.
	Queries []input `json:"queries"`
	// Refs holds independent reference answers for refSample pool queries:
	// an unsharded ccd.Corpus.Match over the same entries, sorted.
	Refs map[int][]ccd.Match `json:"refs"`
}

type input struct {
	ID     string `json:"id"`
	Source string `json:"source"`
}

func (f *fixture) snapshot() string { return filepath.Join(f.dir, service.SnapshotFile) }

// partition returns the snapshot directory of ring partition i of 2.
func (f *fixture) partition(i int) string { return filepath.Join(f.dir, fmt.Sprintf("p%d", i)) }

// loadFixture returns the corpus fixture at scale, building it first when
// none was built by the current code. withRefs also builds the reference
// answers and the two ring-partition snapshots.
func loadFixture(cfg config, scale float64, withRefs bool) (*fixture, error) {
	hash, err := codeHash(cfg.root)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("corpus-s%g", scale)
	if withRefs {
		name += "-ref"
	}
	if err := removeStale(cfg.work("fixtures"), name, hash); err != nil {
		return nil, err
	}
	name += "-" + hash
	dir := cfg.work("fixtures", name)
	meta := filepath.Join(dir, "fixture.json")
	if b, err := os.ReadFile(meta); err == nil {
		f := &fixture{dir: dir}
		if err := json.Unmarshal(b, f); err != nil {
			return nil, fmt.Errorf("fixture %s: %w", meta, err)
		}
		return f, nil
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Dir(dir), name+".tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	fmt.Fprintf(os.Stderr, "perfbench: building fixture %s (once per code version)\n", name)
	f, err := buildFixture(tmp, scale, withRefs)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(f)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "fixture.json"), b, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return nil, err
	}
	f.dir = dir
	return f, nil
}

// codeHash is a content hash of everything that builds or reads a fixture:
// go.mod and go.sum, every file under internal/ and cmd/, and the
// benchmark's own Go sources. Fixtures are cached under it, so a change to
// any of these rebuilds them and two code versions never share one.
func codeHash(root string) (string, error) {
	h := sha256.New()
	add := func(path string) error {
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	}
	for _, f := range []string{"go.mod", "go.sum", filepath.Join("perfbench", "go.mod")} {
		if err := add(filepath.Join(root, f)); err != nil && !os.IsNotExist(err) {
			return "", err
		}
	}
	for _, d := range []string{"internal", "cmd", "perfbench"} {
		err := filepath.WalkDir(filepath.Join(root, d), func(path string, e fs.DirEntry, err error) error {
			if err != nil || !e.Type().IsRegular() {
				return err
			}
			if d == "perfbench" && filepath.Ext(path) != ".go" {
				return nil
			}
			return add(path)
		})
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// removeStale deletes fixtures named name that another code version built,
// so a checkout that moves between versions keeps one fixture per name.
func removeStale(dir, name, hash string) error {
	es, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range es {
		rest, ok := strings.CutPrefix(e.Name(), name+"-")
		if ok && rest != hash && !strings.HasPrefix(rest, "ref-") {
			if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildFixture generates the corpus exactly as cmd/gencorpus -snapshot does
// (sanctuary contracts plus honeypots, fingerprinted through a serving
// engine) and writes its snapshot into dir.
func buildFixture(dir string, scale float64, withRefs bool) (*fixture, error) {
	start := time.Now()
	hp := dataset.GenerateHoneypots(fixtureSeed)
	qa := dataset.GenerateQA(dataset.QAConfig{Seed: fixtureSeed, Scale: scale})
	sc := dataset.GenerateSanctuary(dataset.SanctuaryConfig{Seed: fixtureSeed + 1, Scale: scale}, qa)
	engine := service.New(service.Options{CCD: ccd.DefaultConfig})
	entries := make([]service.CorpusEntry, 0, len(sc)+len(hp))
	for _, c := range sc {
		entries = append(entries, service.CorpusEntry{ID: "sanctuary/" + c.Address, Source: c.Source})
	}
	for _, h := range hp {
		entries = append(entries, service.CorpusEntry{ID: "honeypot/" + h.ID, Source: h.Source})
	}
	engine.CorpusAddBatch(entries)
	if err := writeSnapshot(filepath.Join(dir, service.SnapshotFile), engine.Corpus()); err != nil {
		return nil, err
	}

	f := &fixture{Entries: engine.Corpus().Len()}
	for _, s := range qa.Snippets {
		if !dataset.IsSolidityLike(s.Source) {
			continue
		}
		if _, err := solidity.Parse(s.Source); err != nil {
			continue
		}
		f.Queries = append(f.Queries, input{ID: s.ID, Source: s.Source})
	}
	if withRefs {
		all := corpusEntries(engine.Corpus())
		if err := writePartitions(dir, all); err != nil {
			return nil, err
		}
		f.Refs = referenceAnswers(all, f.Queries)
	}
	f.BuildS = time.Since(start).Seconds()
	return f, nil
}

// corpusEntries lists every (id, fingerprint) of a serving corpus.
func corpusEntries(c *service.Corpus) []ccd.Entry {
	var all []ccd.Entry
	for i := 0; i < c.Shards(); i++ {
		es, _ := c.ShardEntries(i)
		all = append(all, es...)
	}
	return all
}

// writePartitions splits the entries by the router's consistent-hash ring
// into two partition snapshots, p0 and p1.
func writePartitions(dir string, all []ccd.Entry) error {
	ring := remote.NewRing(2)
	parts := make([][]service.CorpusEntry, 2)
	for _, e := range all {
		o := ring.Owner(e.ID)
		parts[o] = append(parts[o], service.CorpusEntry{ID: e.ID, Fingerprint: e.FP})
	}
	for i, es := range parts {
		eng := service.New(service.Options{CCD: ccd.DefaultConfig})
		eng.CorpusAddBatch(es)
		if err := writeSnapshot(filepath.Join(dir, fmt.Sprintf("p%d", i), service.SnapshotFile), eng.Corpus()); err != nil {
			return err
		}
	}
	return nil
}

func writeSnapshot(path string, c *service.Corpus) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := c.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// referenceAnswers computes, for an evenly spaced sample of the pool, every
// match of an unsharded ccd.Corpus over the same entries (no top-K pruning,
// no serving code), sorted best first. Query fingerprints come straight from
// ccd.FingerprintSource.
func referenceAnswers(all []ccd.Entry, qs []input) map[int][]ccd.Match {
	ref := ccd.NewCorpus(ccd.DefaultConfig)
	for _, e := range all {
		ref.Add(e.ID, e.FP)
	}
	var idx []int
	step := max(len(qs)/refSample, 1)
	for i := 0; i < len(qs) && len(idx) < refSample; i += step {
		idx = append(idx, i)
	}
	out := make(map[int][]ccd.Match, len(idx))
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fp, _ := ccd.FingerprintSource(qs[i].Source)
				ms := ref.Match(fp)
				ccd.SortMatches(ms)
				mu.Lock()
				out[i] = ms
				mu.Unlock()
			}
		}()
	}
	for _, i := range idx {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// copyFile copies src to dst (a fresh serving directory per run keeps the
// cached fixture pristine).
func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
