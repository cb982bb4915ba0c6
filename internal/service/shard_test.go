package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ccd"
	"repro/internal/index"
)

// randomFingerprints builds a deterministic set of fingerprints with heavy
// duplication and near-duplication, so top-K ties (same score, different id)
// actually occur and the shard-merge tie-breaking is exercised.
func randomFingerprints(seed int64, n int) []ccd.Fingerprint {
	rng := rand.New(rand.NewSource(seed))
	alphabet := []byte("QxRtYuIoPAbCdEfGhZvNm")
	base := make([][]byte, 7)
	for i := range base {
		b := make([]byte, 12+rng.Intn(20))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		base[i] = b
	}
	out := make([]ccd.Fingerprint, n)
	for i := range out {
		b := append([]byte(nil), base[rng.Intn(len(base))]...)
		for k := rng.Intn(3); k > 0; k-- { // up to 2 point mutations
			b[rng.Intn(len(b))] = alphabet[rng.Intn(len(alphabet))]
		}
		if rng.Intn(4) == 0 { // sometimes multi-function fingerprints
			b = append(b, '.')
			b = append(b, base[rng.Intn(len(base))]...)
		}
		out[i] = ccd.Fingerprint(b)
	}
	return out
}

// TestShardedMatchTopKEqualsSingleCorpusPrefix is the tentpole equivalence
// property: for every k, the sharded scatter-gather MatchTopK must return
// exactly the k-prefix of the single-corpus sorted Match result — same ids,
// same scores, same tie-breaking — regardless of shard count.
func TestShardedMatchTopKEqualsSingleCorpusPrefix(t *testing.T) {
	const docs = 160
	fps := randomFingerprints(11, docs)

	single := ccd.NewCorpus(ccd.DefaultConfig)
	sharded := map[int]*Corpus{}
	for _, shards := range []int{1, 3, 4, 7} {
		sharded[shards] = NewCorpus(ccd.DefaultConfig, shards)
	}
	for i, fp := range fps {
		id := fmt.Sprintf("doc-%03d", i)
		single.Add(id, fp)
		for _, c := range sharded {
			if err := c.Add(id, fp); err != nil {
				t.Fatal(err)
			}
		}
	}

	queries := randomFingerprints(23, 12)
	queries = append(queries, fps[0], fps[docs/2]) // exact-hit queries
	for qi, q := range queries {
		reference := single.Match(q)
		ccd.SortMatches(reference)
		for shards, c := range sharded {
			for k := 0; k <= len(reference)+2; k++ {
				got, _ := c.MatchTopK(q, k)
				want := reference
				if k > 0 && k < len(want) {
					want = want[:k]
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("query %d, shards=%d, k=%d:\n got %v\nwant %v", qi, shards, k, got, want)
				}
			}
		}
	}
}

// TestShardedTopKTieAtBound is the adversarial tie-at-bound extension of the
// sharded≡single property: the corpus is built so that many documents score
// EXACTLY the same as the k-th place — the score the shared ccd.AtomicBound
// settles at — across different shards. Ties at the shared admission bound
// must survive to the merge (the bound is a strictly-below cutoff) and
// resolve by id there, so the k-th place id is pinned deterministic for
// every shard count and every k straddling a tie group.
func TestShardedTopKTieAtBound(t *testing.T) {
	base := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNmQwErTy")
	near := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNmQwErTz") // 1 edit: one shared sub-score tier
	far := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNmQwEraa")  // 2 edits: a lower tier
	var entries []ccd.Entry
	// 12 exact duplicates (score 100), 8 one-edit copies (one identical
	// intermediate score), 6 two-edit copies: three plateaus of exact ties.
	// Ids interleave so every tie group spans every shard.
	for i := 0; i < 12; i++ {
		entries = append(entries, ccd.Entry{ID: fmt.Sprintf("dup-%02d", i), FP: base})
	}
	for i := 0; i < 8; i++ {
		entries = append(entries, ccd.Entry{ID: fmt.Sprintf("near-%02d", i), FP: near})
	}
	for i := 0; i < 6; i++ {
		entries = append(entries, ccd.Entry{ID: fmt.Sprintf("far-%02d", i), FP: far})
	}

	single := ccd.NewCorpus(ccd.DefaultConfig)
	for _, e := range entries {
		single.Add(e.ID, e.FP)
	}
	reference := single.Match(base)
	ccd.SortMatches(reference)
	if len(reference) < 20 {
		t.Fatalf("tie fixture too weak: only %d reference matches", len(reference))
	}
	// The fixture must actually produce score plateaus.
	plateau := map[float64]int{}
	for _, m := range reference {
		plateau[m.Score]++
	}
	if plateau[100] != 12 {
		t.Fatalf("want 12 exact ties at 100, got %d (scores %v)", plateau[100], plateau)
	}

	for _, shards := range []int{1, 2, 3, 5, 8} {
		c := NewCorpus(ccd.DefaultConfig, shards)
		for _, e := range entries {
			if err := c.Add(e.ID, e.FP); err != nil {
				t.Fatal(err)
			}
		}
		// Every k, including each k that lands INSIDE a tie plateau (k=5 cuts
		// the twelve 100s; k=15 cuts the near group): the merged result must
		// be the exact k-prefix of the reference, ids and all.
		for k := 0; k <= len(reference)+1; k++ {
			got, _ := c.MatchTopK(base, k)
			want := reference
			if k > 0 && k < len(want) {
				want = want[:k]
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d k=%d:\n got %v\nwant %v", shards, k, got, want)
			}
		}
		// Determinism across repeated runs of the same racy scatter-gather:
		// the shared bound is raised concurrently, but the merged k-th place
		// must never wobble.
		for run := 0; run < 10; run++ {
			got, _ := c.MatchTopK(base, 5)
			if !reflect.DeepEqual(got, reference[:5]) {
				t.Fatalf("shards=%d run %d: tie-at-bound merge wobbled:\n got %v\nwant %v",
					shards, run, got, reference[:5])
			}
		}
	}
}

// TestShardedMatchAcrossBackends runs the same prefix property on the ssdeep
// backend (whose scoring has no n-gram pre-filter): k-truncation must be a
// prefix of the unbounded result for any shard count.
func TestShardedMatchAcrossBackends(t *testing.T) {
	fps := randomFingerprints(31, 60)
	one, err := NewBackendCorpus(index.BackendSSDeep, index.Config{Epsilon: 20}, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := NewBackendCorpus(index.BackendSSDeep, index.Config{Epsilon: 20}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, fp := range fps {
		id := fmt.Sprintf("doc-%03d", i)
		for _, c := range []*Corpus{one, many} {
			if err := c.AddDoc(index.Doc{ID: id, FP: fp}); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := index.Doc{FP: fps[7]}
	ref, _, err := one.MatchDocTopK(context.Background(), q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("ssdeep reference query matched nothing")
	}
	for k := 0; k <= len(ref)+1; k++ {
		got, _, err := many.MatchDocTopK(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		want := ref
		if k > 0 && k < len(want) {
			want = want[:k]
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d:\n got %v\nwant %v", k, got, want)
		}
	}
}

// TestDuplicateAddSupersedes is the duplicate-ingest regression: re-adding
// an existing id must replace the earlier copy — across generation-segments,
// in Len, the ingest stats and match results — never double-count it.
func TestDuplicateAddSupersedes(t *testing.T) {
	fp1 := ccd.Fingerprint("QxRtYuIoPAbCdEfGhZvNm")
	fp2 := ccd.Fingerprint("ZZZZYuIoPAbCdEfGhXXXX")
	for _, shards := range []int{1, 4} {
		c := NewCorpus(ccd.DefaultConfig, shards)
		if err := c.Add("dup", fp1); err != nil {
			t.Fatal(err)
		}
		// Bury the first copy under later segments so the supersede has to
		// reach across generation-segments, not just the newest one.
		for i := 0; i < 20; i++ {
			if err := c.Add(fmt.Sprintf("filler-%02d", i), testFP(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Add("dup", fp2); err != nil {
			t.Fatal(err)
		}

		if got := c.Len(); got != 21 {
			t.Fatalf("shards=%d: Len %d after duplicate add, want 21", shards, got)
		}
		if got := c.Supersedes(); got != 1 {
			t.Fatalf("shards=%d: supersedes %d, want 1", shards, got)
		}
		if got := c.entryMultiset()["dup\x00"+string(fp1)]; got != 0 {
			t.Fatalf("shards=%d: stale fingerprint still indexed %d times", shards, got)
		}
		if got := c.entryMultiset()["dup\x00"+string(fp2)]; got != 1 {
			t.Fatalf("shards=%d: new fingerprint indexed %d times, want 1", shards, got)
		}
		// The old fingerprint no longer matches at 100; the new one matches
		// exactly once.
		for _, m := range c.Match(fp1) {
			if m.ID == "dup" && m.Score == 100 {
				t.Fatalf("shards=%d: superseded copy still matches at 100", shards)
			}
		}
		hits := 0
		for _, m := range c.Match(fp2) {
			if m.ID == "dup" {
				hits++
				if m.Score != 100 {
					t.Fatalf("shards=%d: superseding copy scores %v", shards, m.Score)
				}
			}
		}
		if hits != 1 {
			t.Fatalf("shards=%d: new copy matched %d times, want exactly 1", shards, hits)
		}

		// Same-batch duplicates collapse too (last write wins).
		c2 := NewCorpus(ccd.DefaultConfig, shards)
		c2.addLocalBatch([]ccd.Entry{{ID: "x", FP: fp1}, {ID: "x", FP: fp2}, {ID: "y", FP: fp1}})
		if c2.Len() != 2 {
			t.Fatalf("shards=%d: batch dup Len %d, want 2", shards, c2.Len())
		}
		if got := c2.entryMultiset()["x\x00"+string(fp2)]; got != 1 {
			t.Fatalf("shards=%d: batch dup kept wrong version (%d)", shards, got)
		}
	}

	// Supersede must survive a snapshot restore: the live-id set is rebuilt
	// from the restored segments, so a post-restore re-ingest still replaces.
	src := NewCorpus(ccd.DefaultConfig, 2)
	if err := src.Add("dup", fp1); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, src, 8)
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	dst := NewCorpus(ccd.DefaultConfig, 2)
	if err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := dst.Add("dup", fp2); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 9 {
		t.Fatalf("post-restore Len %d, want 9", dst.Len())
	}
	if got := dst.entryMultiset()["dup\x00"+string(fp1)]; got != 0 {
		t.Fatal("post-restore re-ingest did not supersede the restored copy")
	}

	// The ssdeep backend rebuilds through the same EntryRemover path.
	ssd, err := NewBackendCorpus(index.BackendSSDeep, index.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := ssd.AddDoc(index.Doc{ID: fmt.Sprintf("s-%d", i), FP: testFP(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ssd.AddDoc(index.Doc{ID: "s-3", FP: testFP(3)}); err != nil {
		t.Fatal(err)
	}
	if ssd.Len() != 6 {
		t.Fatalf("ssdeep Len %d after duplicate add, want 6", ssd.Len())
	}
	ms, _, err := ssd.MatchDocTopK(context.Background(), index.Doc{FP: testFP(3)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, m := range ms {
		if m.ID == "s-3" {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("ssdeep duplicate id matched %d times, want 1", seen)
	}
}

// TestBatchDuplicateKeepsLastAcceptedCopy: when one publish batch holds two
// copies of an id and the backend refuses the later one (smartembed cannot
// index a fingerprint-only doc), the earlier indexable copy must win — the
// same outcome sequential ingest of the two Adds produces — instead of the
// blind last-write-wins dedup dropping the indexable copy and losing the id.
func TestBatchDuplicateKeepsLastAcceptedCopy(t *testing.T) {
	se, err := NewBackendCorpus(index.BackendSmartEmbed, index.Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	se.addDocsLocal([]index.Doc{
		{ID: "x", Source: reentrantSrc},
		{ID: "x", FP: testFP(1)}, // refused: smartembed needs source
		{ID: "y", Source: reentrantSrc},
	})
	if se.Len() != 2 {
		t.Fatalf("Len %d, want 2 (indexable copy of x dropped)", se.Len())
	}
	if se.Skips() != 1 || se.Supersedes() != 0 {
		t.Fatalf("skips=%d supersedes=%d, want 1/0 (refused copy is a skip, not a supersede)", se.Skips(), se.Supersedes())
	}
	ms, _, err := se.MatchDocTopK(context.Background(), index.Doc{Source: reentrantSrc}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, m := range ms {
		if m.ID == "x" {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("x matched %d times, want 1", hits)
	}

	// When the later copy IS indexable, last write still wins in one batch.
	c := NewCorpus(ccd.DefaultConfig, 1)
	fp1, fp2 := testFP(1), testFP(2)
	c.addDocsLocal([]index.Doc{{ID: "x", FP: fp1}, {ID: "x", FP: fp2}})
	if c.Len() != 1 || c.Supersedes() != 1 {
		t.Fatalf("len=%d supersedes=%d, want 1/1", c.Len(), c.Supersedes())
	}
	if got := c.entryMultiset()["x\x00"+string(fp2)]; got != 1 {
		t.Fatalf("last indexable copy kept %d times, want 1", got)
	}
}

// forgeSnapshot encodes a snapshot envelope declaring cfg whose single shard
// holds one ccd segment per entry list, each saved under its own config in
// segCfgs — so tests can forge the multi-segment and mixed-config layouts
// a correct writer never produces.
func forgeSnapshot(t *testing.T, cfg ccd.Config, segCfgs []ccd.Config, segments [][]ccd.Entry) []byte {
	t.Helper()
	b := binary.AppendUvarint([]byte(corpusSnapshotMagic), CorpusSnapshotVersion)
	b = binary.AppendUvarint(b, uint64(len(index.BackendCCD)))
	b = append(b, index.BackendCCD...)
	b = binary.AppendUvarint(b, uint64(cfg.N))
	for _, f := range []float64{cfg.Eta, cfg.Epsilon, 0} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
	}
	b = binary.AppendUvarint(b, 1) // one shard
	b = binary.AppendUvarint(b, uint64(len(segments)))
	for i, seg := range segments {
		c := ccd.NewCorpus(segCfgs[i])
		for _, e := range seg {
			c.Add(e.ID, e.FP)
		}
		var segBuf bytes.Buffer
		if err := c.Save(&segBuf); err != nil {
			t.Fatal(err)
		}
		b = binary.AppendUvarint(b, uint64(segBuf.Len()))
		b = append(b, segBuf.Bytes()...)
	}
	return b
}

// TestForgedSnapshotEnvelopes: a multi-segment snapshot restores into the
// sharded corpus — byte-identically when the corpus has one shard (segments
// install as-is), re-partitioned by id hash otherwise — with the snapshot's
// matcher configuration adopted in both cases; a snapshot whose segments
// disagree on the config, or that holds another backend, is refused.
func TestForgedSnapshotEnvelopes(t *testing.T) {
	cfg := ccd.ConservativeConfig
	segments := [][]ccd.Entry{nil, nil, nil}
	want := map[string]int{}
	for i := 0; i < 45; i++ {
		e := ccd.Entry{ID: fmt.Sprintf("doc-%d", i), FP: testFP(i)}
		segments[i%3] = append(segments[i%3], e)
		want[e.ID+"\x00"+string(e.FP)]++
	}
	raw := forgeSnapshot(t, cfg, []ccd.Config{cfg, cfg, cfg}, segments)

	for _, shards := range []int{1, 4} {
		c := NewCorpus(ccd.DefaultConfig, shards)
		if err := c.ReadSnapshot(bytes.NewReader(raw)); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if c.Config() != cfg {
			t.Fatalf("shards=%d: config %v, want %v", shards, c.Config(), cfg)
		}
		if c.Len() != 45 {
			t.Fatalf("shards=%d: restored %d entries, want 45", shards, c.Len())
		}
		if got := c.entryMultiset(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: restored entry multiset differs", shards)
		}
		if shards == 1 {
			// Byte-identical install: the three segments survive as-is.
			if got := c.Segments(); got != 3 {
				t.Fatalf("1-shard restore rebuilt segments: %d, want 3", got)
			}
		}
	}

	// Mixed-config segments must be refused: every segment is matched with
	// one prepared query derived under a single config, so a snapshot whose
	// segments disagree would silently score wrong.
	mixed := forgeSnapshot(t, ccd.Config{N: 3, Eta: 0.5, Epsilon: 70},
		[]ccd.Config{{N: 3, Eta: 0.5, Epsilon: 70}, {N: 5, Eta: 0.5, Epsilon: 70}},
		segments[:2])
	err := NewCorpus(ccd.DefaultConfig, 1).ReadSnapshot(bytes.NewReader(mixed))
	if err == nil || !strings.Contains(err.Error(), "differs from snapshot config") {
		t.Fatalf("mixed-config snapshot: err=%v, want a config mismatch", err)
	}

	// A non-ccd corpus must refuse a ccd snapshot.
	ssd, err := NewBackendCorpus(index.BackendSSDeep, index.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ssd.ReadSnapshot(bytes.NewReader(raw)); err == nil {
		t.Fatal("ssdeep corpus accepted a ccd snapshot")
	}
}

// TestSnapshotRoundTripShardAware: the version-2 envelope round-trips across
// matching and mismatching shard counts and refuses a backend mismatch.
func TestSnapshotRoundTripShardAware(t *testing.T) {
	src := NewCorpus(ccd.DefaultConfig, 4)
	mustAdd(t, src, 64)
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	same := NewCorpus(ccd.ConservativeConfig, 4)
	if err := same.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if same.Config() != src.Config() {
		t.Fatalf("config %v, want %v", same.Config(), src.Config())
	}
	if !reflect.DeepEqual(same.entryMultiset(), src.entryMultiset()) {
		t.Fatal("matching-shard restore lost entries")
	}
	// Matching shard counts must preserve the exact per-shard layout.
	for i, st := range same.ShardStats() {
		if st.Size != src.ShardStats()[i].Size {
			t.Fatalf("shard %d size %d, want %d", i, st.Size, src.ShardStats()[i].Size)
		}
	}

	reshard := NewCorpus(ccd.DefaultConfig, 7)
	if err := reshard.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reshard.entryMultiset(), src.entryMultiset()) {
		t.Fatal("re-sharded restore lost entries")
	}
	verifyEntries(t, reshard, 64)

	// ssdeep round-trip through the same envelope.
	ssrc, err := NewBackendCorpus(index.BackendSSDeep, index.Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := ssrc.AddDoc(index.Doc{ID: fmt.Sprintf("s-%d", i), FP: testFP(i)}); err != nil {
			t.Fatal(err)
		}
	}
	buf.Reset()
	if err := ssrc.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	sdst, err := NewBackendCorpus(index.BackendSSDeep, index.Config{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := sdst.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if sdst.Len() != 20 {
		t.Fatalf("ssdeep restore: %d entries, want 20", sdst.Len())
	}
	if err := NewCorpus(ccd.DefaultConfig, 3).ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("ccd corpus accepted an ssdeep snapshot")
	}
}

// TestValidateSnapshotConfig: forged envelopes with out-of-domain matcher
// parameters must fail the restore instead of installing a corpus that
// panics on first use (negative N, NaN thresholds).
func TestValidateSnapshotConfig(t *testing.T) {
	ok := index.Config{CCD: ccd.DefaultConfig}
	if err := validateSnapshotConfig(ok); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	nan := math.NaN()
	bad := []index.Config{
		{CCD: ccd.Config{N: -3, Eta: 0.5, Epsilon: 70}},
		{CCD: ccd.Config{N: 1 << 20, Eta: 0.5, Epsilon: 70}},
		{CCD: ccd.Config{N: 3, Eta: nan, Epsilon: 70}},
		{CCD: ccd.Config{N: 3, Eta: 1.5, Epsilon: 70}},
		{CCD: ccd.Config{N: 3, Eta: 0.5, Epsilon: -1}},
		{CCD: ccd.Config{N: 3, Eta: 0.5, Epsilon: nan}},
		{CCD: ccd.DefaultConfig, Epsilon: 1000},
	}
	for i, cfg := range bad {
		if err := validateSnapshotConfig(cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// TestMatchCancellation: a cancelled context aborts the scatter-gather with
// ctx.Err() before (or during) the scan, both at the corpus and through the
// engine's pooled submit path.
func TestMatchCancellation(t *testing.T) {
	c := NewCorpus(ccd.DefaultConfig, 4)
	mustAdd(t, c, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.MatchDocTopK(ctx, index.Doc{FP: testFP(3)}, 5); err != context.Canceled {
		t.Fatalf("corpus match error %v, want context.Canceled", err)
	}
	if got := c.Funnel().CancelledReads; got != 1 {
		t.Fatalf("cancelled reads %d, want 1", got)
	}

	e := New(Options{Workers: 2, Shards: 4})
	if err := e.CorpusAdd("a", reentrantSrc); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.MatchSource(ctx, "", reentrantSrc, 5); err != context.Canceled {
		t.Fatalf("engine match error %v, want context.Canceled", err)
	}
	// Batch dispatch stops: with a pre-cancelled ctx no source runs.
	_, _, err := e.MatchBatchCtx(ctx, "", []string{reentrantSrc, benignSrc}, 0)
	if err != context.Canceled {
		t.Fatalf("batch error %v, want context.Canceled", err)
	}
	// DoCtx refuses to queue on a cancelled context.
	if err := e.DoCtx(ctx, func() { t.Error("task ran on cancelled ctx") }); err != context.Canceled {
		t.Fatalf("DoCtx error %v, want context.Canceled", err)
	}
}

// TestEngineBackendRouting covers CorpusFor and the multi-backend ingest
// fan-out: every loaded backend indexes source docs, SmartEmbed skips
// fingerprint-only docs, and routing errors are typed.
func TestEngineBackendRouting(t *testing.T) {
	e := New(Options{Workers: 2, Shards: 2, Backends: []string{index.BackendSSDeep, index.BackendSmartEmbed}})
	if got := e.Backends(); len(got) != 3 {
		t.Fatalf("backends %v, want 3", got)
	}
	if err := e.CorpusAdd("src-1", reentrantSrc); err != nil {
		t.Fatal(err)
	}
	if err := e.CorpusAddFingerprint("fp-1", testFP(1)); err != nil {
		t.Fatal(err)
	}
	ccdCorpus, _ := e.CorpusFor("")
	if ccdCorpus.Len() != 2 {
		t.Fatalf("ccd corpus %d entries, want 2", ccdCorpus.Len())
	}
	se, err := e.CorpusFor(index.BackendSmartEmbed)
	if err != nil {
		t.Fatal(err)
	}
	if se.Len() != 1 || se.Skips() != 1 {
		t.Fatalf("smartembed len=%d skips=%d, want 1/1", se.Len(), se.Skips())
	}
	ssd, err := e.CorpusFor(index.BackendSSDeep)
	if err != nil {
		t.Fatal(err)
	}
	if ssd.Len() != 2 {
		t.Fatalf("ssdeep corpus %d entries, want 2", ssd.Len())
	}

	// Matching on each backend end to end.
	for _, backend := range []string{"", index.BackendSSDeep, index.BackendSmartEmbed} {
		ms, _, err := e.MatchSource(context.Background(), backend, reentrantSrc, 1)
		if err != nil {
			t.Fatalf("match on %q: %v", backend, err)
		}
		if len(ms) != 1 || ms[0].ID != "src-1" {
			t.Fatalf("match on %q: %v, want src-1", backend, ms)
		}
	}

	if _, err := e.CorpusFor("bogus"); !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("bogus backend error %v", err)
	}
	e2 := New(Options{Workers: 1})
	if _, err := e2.CorpusFor(index.BackendSSDeep); !errors.Is(err, ErrBackendNotLoaded) {
		t.Fatalf("not-loaded error %v", err)
	}

	m := e.Metrics()
	if len(m.Backends) != 3 || m.Backends[index.BackendCCD].Size != 2 {
		t.Fatalf("metrics backends %+v", m.Backends)
	}
	if m.CorpusShardCount != 2 || len(m.CorpusShards) != 2 {
		t.Fatalf("metrics shard view: count=%d shards=%d", m.CorpusShardCount, len(m.CorpusShards))
	}
}
