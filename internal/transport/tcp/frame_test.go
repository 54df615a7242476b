package tcp

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	// Epochs exercise zero, small, and full-width values.
	epochs := []uint64{0, 1, 7, 1<<63 + 42}
	for i, pay := range payloads {
		buf = appendFrame(buf, byte(i+1), uint32(i+1), epochs[i], pay)
	}
	fr := newFrameReader(bufio.NewReader(bytes.NewReader(buf)))
	for i, pay := range payloads {
		f, err := fr.read()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if f.typ != byte(i+1) || f.seq != uint32(i+1) || f.epoch != epochs[i] || !bytes.Equal(f.pay, pay) {
			t.Fatalf("frame %d round-tripped as type=%d seq=%d epoch=%d len=%d", i, f.typ, f.seq, f.epoch, len(f.pay))
		}
	}
	if _, err := fr.read(); err == nil {
		t.Fatal("read past the last frame succeeded")
	}
}

func TestFrameChecksumDetectsBitFlips(t *testing.T) {
	base := appendFrame(nil, fOps, 7, 3, []byte(`{"round":1}`))
	// Flip one bit at every position past the length prefix — the epoch field
	// included; each flip must be rejected (length-prefix flips are covered
	// by the limit check and read-shortfall instead).
	for i := 4; i < len(base); i++ {
		mut := append([]byte(nil), base...)
		mut[i] ^= 0x10
		if _, err := newFrameReader(bufio.NewReader(bytes.NewReader(mut))).read(); err == nil {
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
}

func TestFrameLengthLimit(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, fOps, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	_, err := newFrameReader(bufio.NewReader(bytes.NewReader(hdr))).read()
	if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("oversized length prefix: got %v", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	full := appendFrame(nil, fResults, 3, 1, []byte("payload"))
	for cut := 1; cut < len(full); cut++ {
		if _, err := newFrameReader(bufio.NewReader(bytes.NewReader(full[:cut]))).read(); err == nil {
			t.Fatalf("truncation at %d/%d bytes went undetected", cut, len(full))
		}
	}
}

// TestFrameReaderReusesScratch pins the scratch-buffer contract: after the
// first read, payloads that fit the grown scratch allocate nothing, and a
// frame's payload aliases the scratch (so it is only valid until the next
// read — decoders that retain bytes must copy).
func TestFrameReaderReusesScratch(t *testing.T) {
	var buf []byte
	for seq := uint32(1); seq <= 16; seq++ {
		buf = appendFrame(buf, fOps, seq, 0, bytes.Repeat([]byte{byte(seq)}, 512))
	}
	fr := newFrameReader(bufio.NewReader(bytes.NewReader(buf)))
	first, err := fr.read()
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(7, func() {
		if _, err := fr.read(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state frame read allocates %.1f times per frame, want 0", allocs)
	}
	// The first frame's payload was overwritten by the later reads: aliasing
	// is the documented cost of the reuse.
	if first.pay[0] == 1 {
		t.Fatal("payload survived subsequent reads; scratch is not being reused")
	}
}

// TestFrameReaderAllocatesWhatArrives: the length prefix is not covered by
// the checksum, so a header claiming a near-maxFrame payload followed by EOF
// must fail having allocated for the bytes that arrived, not for the claim.
func TestFrameReaderAllocatesWhatArrives(t *testing.T) {
	hdr := make([]byte, 17)
	binary.BigEndian.PutUint32(hdr[:4], maxFrame-1)
	hdr[4] = fHello
	binary.BigEndian.PutUint32(hdr[5:9], 1)
	fr := newFrameReader(bufio.NewReader(bytes.NewReader(hdr)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := fr.read()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no payload behind it read as a frame")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a bare %d-byte header allocated %d bytes, want < 1 MiB", len(hdr), got)
	}

	// A payload spanning several growth steps reads back whole, and the same
	// frame cut short inside its second step is a truncation.
	big := bytes.Repeat([]byte{0xAB}, 3*readChunk+5)
	enc := appendFrame(nil, fXchg, 2, 3, big)
	f, err := newFrameReader(bufio.NewReader(bytes.NewReader(enc))).read()
	if err != nil || !bytes.Equal(f.pay, big) {
		t.Fatalf("%d-byte payload: err=%v, read back %d bytes", len(big), err, len(f.pay))
	}
	_, err = newFrameReader(bufio.NewReader(bytes.NewReader(enc[:len(hdr)+readChunk+100]))).read()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("payload cut inside its second growth step: got %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// BenchmarkFrameRead measures the steady-state decode path of one connection:
// b.ReportAllocs keeps the zero-allocation property visible in CI output.
func BenchmarkFrameRead(b *testing.B) {
	pay := bytes.Repeat([]byte{0x5A}, 1024)
	one := appendFrame(nil, fOps, 1, 0, pay)
	// A looping reader that replays the same encoded frame forever.
	fr := newFrameReader(bufio.NewReader(&repeatReader{b: one}))
	b.SetBytes(int64(len(one)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fr.read(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameAppend measures the encode path (already buffer-reusing).
func BenchmarkFrameAppend(b *testing.B) {
	pay := bytes.Repeat([]byte{0x5A}, 1024)
	var buf []byte
	b.SetBytes(int64(len(pay)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = appendFrame(buf[:0], fOps, uint32(i+1), 0, pay)
	}
	_ = buf
}

// repeatReader replays one byte slice endlessly.
type repeatReader struct {
	b   []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.off == len(r.b) {
		r.off = 0
	}
	n := copy(p, r.b[r.off:])
	r.off += n
	return n, nil
}

func TestSeqWindow(t *testing.T) {
	var w seqWindow
	for seq := uint32(1); seq <= 3; seq++ {
		dup, err := w.admit(seq)
		if dup || err != nil {
			t.Fatalf("admit(%d): dup=%v err=%v", seq, dup, err)
		}
	}
	// Duplicates (a chaotic link re-sending) are discardable, not fatal.
	for _, seq := range []uint32{1, 2, 3} {
		dup, err := w.admit(seq)
		if !dup || err != nil {
			t.Fatalf("admit(dup %d): dup=%v err=%v", seq, dup, err)
		}
	}
	// A gap means a frame was silently lost: link failure.
	if _, err := w.admit(5); err == nil {
		t.Fatal("sequence gap went undetected")
	}
}

// FuzzFrameRead: arbitrary bytes never panic the reader (every read ends in
// a frame or an error), and a frame built by appendFrame from fuzzed fields
// reads back exactly.
func FuzzFrameRead(f *testing.F) {
	f.Add(appendFrame(nil, fOps, 1, 0, []byte(`{"round":1}`)), byte(fOps), uint32(1), uint64(0), []byte(`{"round":1}`))
	f.Add([]byte{0, 0, 0, 1, fHello}, byte(fHello), uint32(7), uint64(1<<63+42), []byte{})
	f.Add([]byte{0x03, 0xFF, 0xFF, 0xFF, fXchg, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, byte(fXchg), uint32(0), uint64(3), []byte("x"))
	f.Fuzz(func(t *testing.T, data []byte, typ byte, seq uint32, epoch uint64, pay []byte) {
		fr := newFrameReader(bufio.NewReader(bytes.NewReader(data)))
		// Every successful read consumes at least a 25-byte header and
		// trailer, so this bound is never what ends the loop.
		for i := 0; i <= len(data); i++ {
			if _, err := fr.read(); err != nil {
				break
			}
		}

		enc := appendFrame(nil, typ, seq, epoch, pay)
		got, err := newFrameReader(bufio.NewReader(bytes.NewReader(enc))).read()
		if err != nil {
			t.Fatalf("appendFrame output failed to read back: %v", err)
		}
		if got.typ != typ || got.seq != seq || got.epoch != epoch || !bytes.Equal(got.pay, pay) {
			t.Fatalf("frame read back as type=%d seq=%d epoch=%d len=%d, want type=%d seq=%d epoch=%d len=%d",
				got.typ, got.seq, got.epoch, len(got.pay), typ, seq, epoch, len(pay))
		}
	})
}
