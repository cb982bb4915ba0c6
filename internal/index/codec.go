package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Shared snapshot framing for the non-ccd backends (the ccd backend reuses
// the ccd package's own codec):
//
//	magic   8 bytes (per backend)
//	uvarint version (1)
//	uvarint entry count
//	payload (backend-specific, length-prefixed strings and floats)
//	uint32  CRC-32 (IEEE, little-endian) of every preceding byte
const frameVersion = 1

// maxFrameString bounds any single length-prefixed string, protecting
// OpenSegment from allocating garbage lengths out of corrupt input.
const maxFrameString = 1 << 26 // 64 MiB

// maxPrealloc caps count-driven preallocations: counts are untrusted until
// the payload actually decodes.
const maxPrealloc = 1 << 16

type frameEncoder struct {
	w   *bufio.Writer
	crc hash.Hash32
}

func (e *frameEncoder) Write(p []byte) (int, error) {
	e.crc.Write(p)
	return e.w.Write(p)
}

func (e *frameEncoder) writeUvarint(v uint64) error {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, err := e.Write(buf[:n])
	return err
}

func (e *frameEncoder) writeString(s string) error {
	if err := e.writeUvarint(uint64(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(e, s)
	return err
}

func (e *frameEncoder) writeFloat(f float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
	_, err := e.Write(buf[:])
	return err
}

// writeFramed emits magic, version, count, the payload body, and the CRC.
func writeFramed(w io.Writer, magic string, count int, body func(*frameEncoder) error) error {
	enc := &frameEncoder{w: bufio.NewWriter(w), crc: crc32.NewIEEE()}
	if _, err := io.WriteString(enc, magic); err != nil {
		return err
	}
	if err := enc.writeUvarint(frameVersion); err != nil {
		return err
	}
	if err := enc.writeUvarint(uint64(count)); err != nil {
		return err
	}
	if err := body(enc); err != nil {
		return err
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], enc.crc.Sum32())
	if _, err := enc.w.Write(crcBuf[:]); err != nil {
		return err
	}
	return enc.w.Flush()
}

type frameDecoder struct {
	r   *bytes.Reader
	crc hash.Hash32
}

func (d *frameDecoder) readFull(p []byte) error {
	if _, err := io.ReadFull(d.r, p); err != nil {
		return err
	}
	d.crc.Write(p)
	return nil
}

func (d *frameDecoder) readUvarint() (uint64, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b, err := d.r.ReadByte()
		if err != nil {
			if err == io.EOF && shift > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		d.crc.Write([]byte{b})
		if shift >= 64 {
			return 0, fmt.Errorf("index: uvarint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b&0x80 == 0 {
			return v, nil
		}
	}
}

func (d *frameDecoder) readString() (string, error) {
	n, err := d.readUvarint()
	if err != nil {
		return "", err
	}
	if n > maxFrameString {
		return "", fmt.Errorf("index: string length %d exceeds limit", n)
	}
	buf := make([]byte, n)
	if err := d.readFull(buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (d *frameDecoder) readFloat() (float64, error) {
	var buf [8]byte
	if err := d.readFull(buf[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

// readFramed parses writeFramed bytes: it verifies magic and version, hands
// (decoder, count) to body, and checks the trailing CRC over everything body
// consumed. body must consume the payload exactly.
func readFramed(data []byte, magic string, body func(d *frameDecoder, count int) error) error {
	dec := &frameDecoder{r: bytes.NewReader(data), crc: crc32.NewIEEE()}
	got := make([]byte, len(magic))
	if err := dec.readFull(got); err != nil {
		return fmt.Errorf("index: snapshot magic: %w", err)
	}
	if string(got) != magic {
		return fmt.Errorf("index: bad snapshot magic %q (want %q)", got, magic)
	}
	version, err := dec.readUvarint()
	if err != nil {
		return fmt.Errorf("index: snapshot version: %w", err)
	}
	if version != frameVersion {
		return fmt.Errorf("index: unsupported snapshot version %d", version)
	}
	count, err := dec.readUvarint()
	if err != nil {
		return fmt.Errorf("index: snapshot count: %w", err)
	}
	if count > 1<<40 {
		return fmt.Errorf("index: implausible entry count %d", count)
	}
	if err := body(dec, int(count)); err != nil {
		return err
	}
	want := dec.crc.Sum32()
	var crcBuf [4]byte
	if _, err := io.ReadFull(dec.r, crcBuf[:]); err != nil {
		return fmt.Errorf("index: snapshot CRC: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcBuf[:]); got != want {
		return fmt.Errorf("index: snapshot CRC mismatch (%08x != %08x)", got, want)
	}
	return nil
}
