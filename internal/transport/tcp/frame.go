// Package tcp is the networked Transport: one OS process per processor
// group, plus a sequencer process that hosts the real in-process engine and
// resolves every cycle with the existing resolveMerge/resolveGeneral. Peers
// run their processors' actual programs against a remote Node whose cycle
// ops travel to the sequencer as length-prefixed, FNV-1a-checksummed,
// sequence-numbered frames; inside the sequencer each remote processor is a
// relay goroutine feeding the ops into a real mcb engine run. Because the
// resolver, the fault plane and the stats accounting are literally the
// shared code, a distributed run's Report is byte-identical to the
// in-process engine's for the same (seed, config).
//
// See DESIGN.md "Transport layer" for the frame format and the mapping from
// socket events to the typed failure taxonomy.
package tcp

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Frame types. A frame is:
//
//	uint32  payload length n (big endian)
//	uint8   type
//	uint32  sequence number (per connection, per direction, starting at 1)
//	uint64  epoch (the sequencer generation this session belongs to)
//	n bytes payload
//	uint64  FNV-1a over type ∥ seq ∥ epoch ∥ payload
//
// The sequence number makes duplicate frames (a retransmitting or chaotic
// link) detectable — the reader discards seq ≤ last — and makes silent frame
// loss detectable as a gap, which is treated as a link failure (the protocol
// has no retransmission; recovery happens a layer up, via retry + checkpoint
// resume).
//
// The epoch stamps every frame with the sequencer generation negotiated at
// the handshake: epoch e is served by candidate e mod C of the peer file's
// ordered sequencer list, and a frame whose epoch disagrees with the
// session's is rejected by tearing the connection down — the fencing that
// stops a zombie sequencer (or a peer stranded in an old generation) from
// feeding stale cycle traffic into a promoted group. Single-sequencer groups
// stay at epoch 0 forever, so the field is inert for them.
const (
	fHello     = 1  // peer → seq: join a job (helloBody)
	fWelcome   = 2  // seq → peer: join verdict (welcomeBody)
	fRound     = 3  // peer → seq: propose an engine round (roundBody)
	fStart     = 4  // seq → peer: round accepted and engine running (startBody)
	fOps       = 5  // peer → seq: cycle ops batch (opsBody)
	fResults   = 6  // seq → peer: cycle results batch (resultsBody)
	fDone      = 7  // seq → peer: round finished (doneBody)
	fXchg      = 8  // peer → seq: boundary state blobs (xchgBody)
	fXchgAll   = 9  // seq → peer: merged boundary state (xchgAllBody)
	fFail      = 10 // seq → peer: session-fatal verdict (failBody)
	fHeartbeat = 11 // both ways: liveness, empty payload
	fBye       = 12 // peer → seq: job complete, empty payload
	fAbort     = 13 // peer → seq: cancel the running round (abortBody)
)

// maxFrame bounds a frame payload; anything larger is a corrupt length
// prefix (the state blobs of test-sized runs are well under this).
const maxFrame = 64 << 20

type frame struct {
	typ   byte
	seq   uint32
	epoch uint64
	pay   []byte
}

// fnv1a64 hashes type ∥ seq ∥ epoch ∥ payload.
func fnv1a64(typ byte, seq uint32, epoch uint64, pay []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	h = (h ^ uint64(typ)) * prime
	var s [12]byte
	binary.BigEndian.PutUint32(s[:4], seq)
	binary.BigEndian.PutUint64(s[4:], epoch)
	for _, b := range s {
		h = (h ^ uint64(b)) * prime
	}
	for _, b := range pay {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

// appendFrame serializes one frame into buf (reused across calls).
func appendFrame(buf []byte, typ byte, seq uint32, epoch uint64, pay []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(pay)))
	buf = append(buf, typ)
	buf = binary.BigEndian.AppendUint32(buf, seq)
	buf = binary.BigEndian.AppendUint64(buf, epoch)
	buf = append(buf, pay...)
	buf = binary.BigEndian.AppendUint64(buf, fnv1a64(typ, seq, epoch, pay))
	return buf
}

// frameReader decodes frames from one connection, reusing a single payload
// scratch buffer across reads: the steady-state frame traffic of a run (ops,
// results, heartbeats) allocates nothing per frame. The returned frame's
// payload therefore aliases the scratch and is only valid until the next
// read call — a decoder that retains payload bytes past that point (e.g. a
// json.RawMessage carried into another goroutine) must copy them.
type frameReader struct {
	r   *bufio.Reader
	pay []byte
	// hdr and sum live here rather than on read's stack: io.ReadFull takes
	// an interface, so stack arrays passed to it escape (one heap allocation
	// each per frame).
	hdr [17]byte
	sum [8]byte
}

func newFrameReader(r *bufio.Reader) *frameReader {
	return &frameReader{r: r}
}

// read reads and verifies one frame. Length, checksum or sequence violations
// return an error — the connection is then unusable (framing is lost) and
// must be torn down. The frame's payload is valid until the next read.
func (fr *frameReader) read() (frame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:4])
	if n > maxFrame {
		return frame{}, fmt.Errorf("tcp: frame length %d exceeds limit (corrupt prefix?)", n)
	}
	f := frame{typ: fr.hdr[4], seq: binary.BigEndian.Uint32(fr.hdr[5:9]), epoch: binary.BigEndian.Uint64(fr.hdr[9:17])}
	if uint32(cap(fr.pay)) < n {
		fr.pay = make([]byte, n)
	}
	f.pay = fr.pay[:n]
	if _, err := io.ReadFull(fr.r, f.pay); err != nil {
		return frame{}, err
	}
	if _, err := io.ReadFull(fr.r, fr.sum[:]); err != nil {
		return frame{}, err
	}
	if got, want := binary.BigEndian.Uint64(fr.sum[:]), fnv1a64(f.typ, f.seq, f.epoch, f.pay); got != want {
		return frame{}, fmt.Errorf("tcp: frame checksum mismatch (type %d, seq %d)", f.typ, f.seq)
	}
	return f, nil
}

// seqWindow tracks the per-direction sequence numbers of received frames:
// duplicates are discarded, gaps are link failures.
type seqWindow struct{ last uint32 }

// admit classifies a received sequence number: ok to process, a discardable
// duplicate, or an error (gap — at least one frame was lost in transit).
func (w *seqWindow) admit(seq uint32) (dup bool, err error) {
	switch {
	case seq <= w.last:
		return true, nil
	case seq == w.last+1:
		w.last = seq
		return false, nil
	default:
		return false, fmt.Errorf("tcp: sequence gap: got %d after %d (frame lost)", seq, w.last)
	}
}
