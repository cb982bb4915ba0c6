package ccd

import (
	"bytes"
	"testing"
)

// snapshotSeeds returns valid snapshots of three shapes for seeding the
// fuzz targets: an empty corpus, two short entries, and long repetitive
// fingerprints (a tiny embedded index next to a large entry payload).
func snapshotSeeds(f *testing.F) (empty, small, big []byte) {
	f.Helper()
	seed := func(build func(c *Corpus)) []byte {
		c := NewCorpus(DefaultConfig)
		build(c)
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	empty = seed(func(c *Corpus) {})
	small = seed(func(c *Corpus) {
		c.Add("a", "QxRtYuIoPAbCdEfGh.ZxCvBnMQwErTy")
		c.Add("b", "MmMmMmMmMm.NnNnNnNnNn:PpPpPpPp")
	})
	big = seed(func(c *Corpus) {
		for i := 0; i < 4; i++ {
			fp := bytes.Repeat([]byte("abcabcabcabc"), 200)
			c.Add(string(rune('a'+i)), Fingerprint(fp))
		}
	})
	return empty, small, big
}

// FuzzSnapshotLoad: loading a snapshot from arbitrary bytes must return an
// error or a valid corpus, and corruption must never load: once an input is
// accepted, flipping any single bit of it (magic, version, body or CRC
// trailer) must be refused, never yield a silently different corpus.
// Seeded with valid snapshots plus a truncation and header mutations (a
// version-1 header among them, which must be refused); the committed corpus
// lives in testdata/fuzz/FuzzSnapshotLoad.
func FuzzSnapshotLoad(f *testing.F) {
	empty, small, big := snapshotSeeds(f)
	f.Add(empty)
	f.Add(small)
	f.Add(big)
	f.Add(small[:len(small)/2])
	f.Add([]byte("CCDSNAP\x00"))
	f.Add([]byte("CCDSNAP\x00\x01\x03garbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		if _, err := OpenSegmentBytes(bytes.Clone(data), nil); err != nil {
			return
		}
		reject := func(i int) {
			flipped := bytes.Clone(data)
			flipped[i] ^= 1 << (i % 8)
			if _, err := OpenSegmentBytes(flipped, nil); err == nil {
				t.Fatalf("bit flip at byte %d of %d was accepted", i, len(data))
			}
		}
		// Every byte of small inputs; about 256 spread bytes plus the CRC
		// trailer of large ones, so one input stays cheap.
		for i := 0; i < len(data); i += max(1, len(data)/256) {
			reject(i)
		}
		for i := len(data) - 4; i < len(data); i++ {
			reject(i)
		}
	})
}

// FuzzSegmentOpen: the zero-copy segment open on arbitrary bytes must
// decode or error — never panic, never allocate absurdly, never read past
// the given bytes (take() hands out 3-index subslices, so an over-read would
// panic here and fail the fuzz run). Accepted segments must be sealed,
// internally consistent, answer queries and round-trip. Seeded with valid
// snapshots plus truncations and header mutations; committed regression
// seeds live in testdata/fuzz/FuzzSegmentOpen.
func FuzzSegmentOpen(f *testing.F) {
	empty, small, big := snapshotSeeds(f)
	f.Add(empty)
	f.Add(small)
	f.Add(big)
	f.Add(small[:len(small)/2])
	f.Add(small[:len(small)-2])
	f.Add([]byte("CCDSNAP\x00"))
	f.Add([]byte("CCDSNAP\x00\x02garbagegarbagegarbage"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		c, err := OpenSegmentBytes(bytes.Clone(data), nil)
		if err != nil {
			return
		}
		checkAcceptedCorpus(t, c)
	})
}

// checkAcceptedCorpus asserts the invariants any corpus accepted from
// untrusted bytes must satisfy: it round-trips through Save/OpenSegmentBytes
// unchanged and serves queries without panicking.
func checkAcceptedCorpus(t *testing.T, c *Corpus) {
	t.Helper()
	if got := c.Len(); got != len(c.Entries()) {
		t.Fatalf("inconsistent length: Len=%d entries=%d", got, len(c.Entries()))
	}
	for i, e := range c.Entries() {
		if i >= 3 {
			break
		}
		for _, m := range c.MatchTopK(e.FP, 3) {
			if m.Score < 0 || m.Score > 100 {
				t.Fatalf("score %v out of range", m.Score)
			}
		}
	}
	c.MatchTopK(Fingerprint("QxRtYuIoP.AbCdEfGh"), 2)
	// Whatever was accepted must survive a save/open round trip intact.
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatalf("accepted corpus fails to save: %v", err)
	}
	got, err := OpenSegmentBytes(buf.Bytes(), nil)
	if err != nil {
		t.Fatalf("round trip fails to open: %v", err)
	}
	if got.Len() != c.Len() || got.Config() != c.Config() {
		t.Fatalf("round trip drifted: %d/%v vs %d/%v", got.Len(), got.Config(), c.Len(), c.Config())
	}
	a, b := c.Entries(), got.Entries()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d drifted: %+v vs %+v", i, a[i], b[i])
		}
	}
}
