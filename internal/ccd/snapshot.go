package ccd

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/ngram"
)

// Binary corpus snapshot (version 2, the only format):
//
//	magic   "CCDSNAP\x00"
//	uvarint version
//	uvarint N, float64 Eta, float64 Epsilon   (the matcher Config)
//	uvarint entry count
//	per entry: string id, string fingerprint  (uvarint-length-prefixed)
//	byte    index flag (always 1: embedded ngram codec follows)
//	uvarint index byte length, index bytes (docless NGIX v2 codec)
//	uint32  CRC-32 (IEEE, little-endian) of every preceding byte
//
// The snapshot is the segment format: the embedded index is the
// block-compressed n-gram codec — the same bytes the runtime queries.
// OpenSegmentBytes opens a snapshot zero-copy over its bytes (typically a
// memory-mapped file): posting lists are read in place, so restore skips the
// index rebuild entirely.
const (
	snapshotMagic = "CCDSNAP\x00"
	// SnapshotVersion is the corpus snapshot format version.
	SnapshotVersion = 2
)

// maxSnapshotString bounds any single length-prefixed string in a snapshot,
// protecting OpenSegmentBytes from allocating garbage lengths out of corrupt
// input.
const maxSnapshotString = 1 << 26 // 64 MiB

// maxIndexSection bounds the embedded index section: posting data for
// million-document corpora runs well past maxSnapshotString.
const maxIndexSection = 1 << 30 // 1 GiB

// crcWriter tees writes into a running CRC-32.
type crcWriter struct {
	w   *bufio.Writer
	crc hash.Hash32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc.Write(p)
	return cw.w.Write(p)
}

func (cw *crcWriter) writeUvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := cw.Write(buf[:n])
	return err
}

func (cw *crcWriter) writeString(s string) error {
	if err := cw.writeUvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(cw, s)
	return err
}

func (cw *crcWriter) writeFloat(f float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	_, err := cw.Write(buf[:])
	return err
}

// Save writes the corpus in the versioned binary snapshot format.
func (c *Corpus) Save(w io.Writer) error {
	cw := &crcWriter{w: bufio.NewWriter(w), crc: crc32.NewIEEE()}
	if _, err := io.WriteString(cw, snapshotMagic); err != nil {
		return err
	}
	if err := cw.writeUvarint(SnapshotVersion); err != nil {
		return err
	}
	if err := cw.writeUvarint(uint64(c.cfg.N)); err != nil {
		return err
	}
	if err := cw.writeFloat(c.cfg.Eta); err != nil {
		return err
	}
	if err := cw.writeFloat(c.cfg.Epsilon); err != nil {
		return err
	}
	if err := cw.writeUvarint(uint64(len(c.entries))); err != nil {
		return err
	}
	for _, e := range c.entries {
		if err := cw.writeString(e.ID); err != nil {
			return err
		}
		if err := cw.writeString(string(e.FP)); err != nil {
			return err
		}
	}
	// Always embed the docless index: it is the runtime format, so a mapped
	// open must find it in the file (ids live in the entry table above).
	var encoded bytes.Buffer
	if err := c.index.SaveDocless(&encoded); err != nil {
		return err
	}
	if _, err := cw.Write([]byte{1}); err != nil {
		return err
	}
	if err := cw.writeUvarint(uint64(encoded.Len())); err != nil {
		return err
	}
	if _, err := cw.Write(encoded.Bytes()); err != nil {
		return err
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], cw.crc.Sum32())
	if _, err := cw.w.Write(trailer[:]); err != nil {
		return err
	}
	return cw.w.Flush()
}

// OpenSegmentBytes opens a snapshot written by Save as an immutable segment
// directly over data — typically a memory-mapped segment file. Entry ids and
// fingerprints are copied to the heap (they flow into responses and outlive
// remaps), but the embedded index's posting lists are read zero-copy in
// place, so opening a million-document segment costs a validation pass, not
// a rebuild. The whole payload is CRC-checked first: truncated or corrupted
// input yields an error, never a silently partial corpus. ref is retained for
// the corpus's lifetime to pin data's owner (the mapping holder); the caller
// must not mutate data afterwards. The returned corpus is sealed: Add panics.
func OpenSegmentBytes(data []byte, ref any) (*Corpus, error) {
	if len(data) < len(snapshotMagic)+1+4 {
		return nil, fmt.Errorf("ccd: segment: %d bytes is too short for a snapshot", len(data))
	}
	if string(data[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("ccd: segment: bad magic %q", data[:len(snapshotMagic)])
	}
	version, w := binary.Uvarint(data[len(snapshotMagic):])
	if w <= 0 {
		return nil, fmt.Errorf("ccd: segment: bad version")
	}
	if version != SnapshotVersion {
		return nil, fmt.Errorf("ccd: segment: unsupported version %d (want %d)", version, SnapshotVersion)
	}
	// The CRC trailer covers the whole body; checking it up front also
	// bounds every length field below by construction — a bit flip anywhere
	// is caught here, not by a parser edge case.
	body := data[:len(data)-4]
	stored := binary.LittleEndian.Uint32(data[len(data)-4:])
	if sum := crc32.ChecksumIEEE(body); sum != stored {
		return nil, fmt.Errorf("ccd: segment: checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	r := &byteCursor{b: body[len(snapshotMagic)+w:]}
	n := r.uvarint("config N")
	eta := r.float("config Eta")
	eps := r.float("config Epsilon")
	count := r.uvarint("entry count")
	if r.err != nil {
		return nil, r.err
	}
	entries := make([]Entry, 0, min(count, 1<<20))
	for i := uint64(0); i < count; i++ {
		id := r.str("entry id")
		fp := r.str("entry fingerprint")
		if r.err != nil {
			return nil, r.err
		}
		entries = append(entries, Entry{ID: id, FP: Fingerprint(fp)})
	}
	if flag := r.byteVal("index flag"); r.err == nil && flag != 1 {
		return nil, fmt.Errorf("ccd: segment: unknown index flag %d", flag)
	}
	size := r.uvarint("index length")
	if r.err == nil && size > maxIndexSection {
		return nil, fmt.Errorf("ccd: snapshot: index length %d exceeds limit", size)
	}
	section := r.take(size, "index")
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("ccd: segment: %d trailing bytes after index", len(r.b))
	}
	ix, err := ngram.FromBytes(section)
	if err != nil {
		return nil, fmt.Errorf("ccd: segment: embedded index: %w", err)
	}
	if ix.N() != int(n) {
		return nil, fmt.Errorf("ccd: snapshot: embedded index N=%d does not match config N=%d", ix.N(), n)
	}
	if ix.Len() != len(entries) {
		return nil, fmt.Errorf("ccd: snapshot: embedded index has %d docs, corpus has %d entries", ix.Len(), len(entries))
	}
	return &Corpus{
		cfg:     Config{N: int(n), Eta: eta, Epsilon: eps},
		index:   ix,
		entries: entries,
		mapRef:  ref,
		sealed:  true,
	}, nil
}

// byteCursor parses length-delimited sections out of a byte slice with a
// sticky error; take hands out 3-index subslices so nothing downstream can
// append into (or read past) a read-only mapping.
type byteCursor struct {
	b   []byte
	err error
}

func (r *byteCursor) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, w := binary.Uvarint(r.b)
	if w <= 0 {
		r.err = fmt.Errorf("ccd: segment: read %s: bad uvarint", what)
		return 0
	}
	r.b = r.b[w:]
	return v
}

func (r *byteCursor) take(n uint64, what string) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("ccd: segment: read %s: need %d bytes, have %d", what, n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *byteCursor) byteVal(what string) byte {
	b := r.take(1, what)
	if r.err != nil {
		return 0
	}
	return b[0]
}

func (r *byteCursor) str(what string) string {
	n := r.uvarint(what + " length")
	if r.err != nil {
		return ""
	}
	if n > maxSnapshotString {
		r.err = fmt.Errorf("ccd: snapshot: %s length %d exceeds limit", what, n)
		return ""
	}
	return string(r.take(n, what))
}

func (r *byteCursor) float(what string) float64 {
	b := r.take(8, what)
	if r.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}
