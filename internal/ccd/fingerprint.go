package ccd

import (
	"repro/internal/editdist"
	"repro/internal/ssdeep"
)

// Fingerprint is the fuzzy-hash condensate of a normalized source unit
// (Section 5.4): one base64 character per token, with '.' separating
// function implementations and ':' separating contract definitions. Local
// token edits perturb only the corresponding characters, so edit distance on
// fingerprints approximates token-level edit distance on normalized code.
type Fingerprint string

// Sub-fingerprint separators.
const (
	FuncSep     = '.'
	ContractSep = ':'
)

// FingerprintSource parses, normalizes and fingerprints a Solidity source
// text (snippet or full contract). The returned error reflects parse
// problems; a fingerprint is still produced from whatever parsed.
func FingerprintSource(src string) (Fingerprint, error) {
	nu, err := Normalize(src)
	return FingerprintUnit(nu), err
}

// FingerprintUnit fingerprints normalized token streams. Contract header
// tokens are omitted: after normalization every header reads "contract c {"
// and a constant micro-chunk would only inflate the order-independent
// similarity score. Separators sit between function implementations ('.')
// and between contracts (':').
func FingerprintUnit(nu NormalizedUnit) Fingerprint {
	var s ssdeep.Stream
	for ci, c := range nu.Contracts {
		if ci > 0 {
			s.WriteSeparator(ContractSep)
		}
		for fi, fn := range c.Functions {
			if fi > 0 {
				s.WriteSeparator(FuncSep)
			}
			for _, tok := range fn {
				s.WriteToken(tok)
			}
		}
	}
	return Fingerprint(s.String())
}

// MinSubLen is the minimum sub-fingerprint length considered during
// matching when longer chunks exist: micro-chunks (empty constructors,
// one-line getters normalize to near-identical token runs) carry no clone
// evidence and would inflate the order-independent mean.
const MinSubLen = 6

// Subs splits the fingerprint into its sub-fingerprints (one per function
// implementation). Order-independent matching compares these individually
// (Section 5.5).
func (f Fingerprint) Subs() []string {
	return appendSubs(nil, f)
}

// appendSubs appends f's non-empty sub-fingerprints to dst — a byte-scan
// split (separators are single ASCII bytes, so no rune decoding) whose only
// allocation with a reused dst is amortized slice growth. The appended
// strings alias f.
func appendSubs(dst []string, f Fingerprint) []string {
	s := string(f)
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == FuncSep || s[i] == ContractSep {
			if i > start {
				dst = append(dst, s[start:i])
			}
			start = i + 1
		}
	}
	if len(s) > start {
		dst = append(dst, s[start:])
	}
	return dst
}

// matchSubs returns the sub-fingerprints used for similarity scoring:
// chunks of at least MinSubLen, or all chunks when none is long enough.
func (f Fingerprint) matchSubs() []string {
	return appendMatchSubs(nil, f)
}

// appendMatchSubs is the scratch-friendly matchSubs: long chunks first, with
// a second scan picking up everything only when no chunk reaches MinSubLen.
func appendMatchSubs(dst []string, f Fingerprint) []string {
	s := string(f)
	base := len(dst)
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == FuncSep || s[i] == ContractSep {
			if i-start >= MinSubLen {
				dst = append(dst, s[start:i])
			}
			start = i + 1
		}
	}
	if len(s)-start >= MinSubLen {
		dst = append(dst, s[start:])
	}
	if len(dst) == base {
		return appendSubs(dst, f)
	}
	return dst
}

// --- similarity ---------------------------------------------------------------

// Delta is the normalized sub-fingerprint similarity δ(s1,s2) in [0,100].
func Delta(s1, s2 string) float64 { return editdist.Similarity(s1, s2) }

// orient returns the two sub-fingerprint sets in canonical order: the side
// with fewer subs first (ties broken by fingerprint byte order). Algorithm 1
// is directional — each sub of the first set seeks its best match in the
// second — so evaluating from the smaller side makes the score symmetric
// while preserving the containment semantics the pipeline relies on: a
// snippet matched against a full contract scores the snippet's containment,
// whichever argument order the caller used.
func orient(f1, f2 Fingerprint) (subs1, subs2 []string) {
	subs1, subs2 = f1.matchSubs(), f2.matchSubs()
	if len(subs1) > len(subs2) || (len(subs1) == len(subs2) && f1 > f2) {
		subs1, subs2 = subs2, subs1
	}
	return subs1, subs2
}

// Similarity implements Algorithm 1 (order-independent similarity): every
// sub-fingerprint of the smaller unit is matched against all
// sub-fingerprints of the larger, and the mean of the best matches is
// returned (0..100). The score is symmetric in its arguments; an empty
// fingerprint yields 0.
func Similarity(f1, f2 Fingerprint) float64 {
	subs1, subs2 := orient(f1, f2)
	if len(subs1) == 0 || len(subs2) == 0 {
		return 0
	}
	total := 0.0
	for _, s1 := range subs1 {
		best := 0.0
		for _, s2 := range subs2 {
			if d := Delta(s1, s2); d > best {
				best = d
			}
		}
		total += best
	}
	return total / float64(len(subs1))
}

// SimilarityAtLeast computes Algorithm 1 with early exits: sub-fingerprint
// comparisons use bounded edit distance, and matching aborts once the
// remaining sub-fingerprints cannot lift the mean above threshold.
func SimilarityAtLeast(f1, f2 Fingerprint, threshold float64) (float64, bool) {
	var ed editdist.Scratch
	return similarityAtLeast(f1.matchSubs(), f1, f2.matchSubs(), f2, threshold, &ed)
}

// similarityAtLeast is SimilarityAtLeast over pre-split sub-fingerprints and
// caller-owned edit-distance scratch, letting the matcher derive the query's
// subs once and reuse one pair of DP rows across every candidate.
func similarityAtLeast(subs1 []string, f1 Fingerprint, subs2 []string, f2 Fingerprint, threshold float64, ed *editdist.Scratch) (float64, bool) {
	if len(subs1) > len(subs2) || (len(subs1) == len(subs2) && f1 > f2) {
		subs1, subs2 = subs2, subs1
	}
	if len(subs1) == 0 || len(subs2) == 0 {
		return 0, threshold <= 0
	}
	n := float64(len(subs1))
	// The early exits test against a slightly lowered threshold: they sum
	// the scores in another order than the final mean, so float rounding
	// could otherwise cut a candidate scoring exactly the threshold
	// (thresholds are often prior means). Over-admitted borderline
	// candidates are settled by the exact verdict at the end.
	floor := threshold - 1e-9
	total := 0.0
	for i, s1 := range subs1 {
		remaining := float64(len(subs1) - i - 1)
		// Lower bound on what this sub must contribute for the threshold to
		// stay reachable, assuming every remaining sub scores a perfect 100.
		// It feeds the bounded edit distance, so hopeless sub comparisons
		// stop after a few rows instead of filling the whole matrix.
		minNeeded := floor*n - total - remaining*100
		best := 0.0
		for _, s2 := range subs2 {
			d, ok := ed.SimilarityAtLeast(s1, s2, max(best, minNeeded))
			// A failed bounded search reports a capped distance whose
			// similarity overestimates the truth — only exact (ok) scores
			// may raise best.
			if ok && d > best {
				best = d
				if best == 100 {
					break
				}
			}
		}
		total += best
		// Even perfect remaining matches cannot reach the threshold.
		if (total+remaining*100)/n < floor {
			return total / n, false
		}
	}
	eps := total / n
	return eps, eps >= threshold
}
