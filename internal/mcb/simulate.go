package mcb

import (
	"fmt"
	"sync"
)

// This file implements the simulation result of Section 2: one cycle of an
// MCB(p', k') can be simulated on an MCB(p, k), p' >= p, k' >= k, by having
// each host processor simulate q = ceil(p'/p) virtual processors and each
// host channel carry G = ceil(k'/k) virtual channels, repeating each message
// q times.
//
// Concretely, one virtual cycle takes q*q*G host cycles, indexed (s, j, g):
// in host cycle (s, j, g) the host processor broadcasts the pending message
// of its s-th virtual processor when that message's virtual channel belongs
// to channel group g (virtual channel c' maps to host channel c' mod k in
// group c' div k), and reads on behalf of its j-th virtual processor. A
// writer therefore repeats its message q times (once per j), exactly the
// paper's repetition count; the second q factor pays for the host's
// one-read-per-cycle port, which the paper's cost statement elides. A
// successful read in any round is authoritative (at most one writer per
// virtual channel per virtual cycle), and silence across all rounds is
// virtual silence.
//
// Virtual processors may finish at different times; after each virtual
// cycle the hosts run a small tree AND-reduction ("are all virtual
// processors done?") so the host programs terminate together.

// VProc is the processor handle inside a simulated network. It mirrors the
// Proc cycle API.
type VProc struct {
	id      int
	pv, kv  int
	vcycles int64
	opCh    chan vOp
	resCh   chan readResult
	dead    chan struct{} // closed when the host driver unwinds (abort/crash)
}

type vOp struct {
	kind    opKind
	writeCh int
	readCh  int
	msg     Message
}

// vAbort is the structured panic VProc.Abortf raises. It survives the host
// driver's recover so the virtual processor id reaches the error taxonomy
// instead of degrading into a generic "processor panicked" string.
type vAbort struct {
	vproc int
	msg   string
}

func (a *vAbort) Error() string {
	return fmt.Sprintf("virtual processor %d aborted: %s", a.vproc, a.msg)
}

// hostAbort fails the host computation on behalf of a dead virtual
// processor. On a real engine processor the abort keeps its structure (an
// *AbortError with the virtual id); on other Node implementations it falls
// back to the node's own Abortf. It does not return.
func hostAbort(pr Node, err error) {
	va, structured := err.(*vAbort)
	if structured {
		if p, ok := pr.(*Proc); ok {
			p.abortWith(&AbortError{Proc: p.id, VProc: va.vproc, Msg: va.msg})
		}
		pr.Abortf("virtual processor %d aborted: %s", va.vproc, va.msg)
	}
	pr.Abortf("%v", err)
}

// ID returns the virtual processor index in [0, Pv).
func (v *VProc) ID() int { return v.id }

// P returns the number of virtual processors.
func (v *VProc) P() int { return v.pv }

// K returns the number of virtual channels.
func (v *VProc) K() int { return v.kv }

// vDead unwinds a virtual-program goroutine whose host driver died (engine
// abort or host crash-stop): without it the goroutine would block forever on
// the unbuffered op/result channels nobody services anymore.
type vDead struct{}

func (v *VProc) step(op vOp) readResult {
	v.vcycles++
	select {
	case v.opCh <- op:
	case <-v.dead:
		panic(vDead{})
	}
	select {
	case r := <-v.resCh:
		return r
	case <-v.dead:
		panic(vDead{})
	}
}

// WriteRead broadcasts on a virtual channel and reads another in the same
// virtual cycle.
func (v *VProc) WriteRead(writeCh int, m Message, readCh int) (Message, bool) {
	r := v.step(vOp{kind: opWriteRead, writeCh: writeCh, readCh: readCh, msg: m})
	return r.msg, r.ok
}

// Write broadcasts on a virtual channel.
func (v *VProc) Write(writeCh int, m Message) {
	v.step(vOp{kind: opWrite, writeCh: writeCh, msg: m})
}

// Read reads a virtual channel; ok=false reports virtual silence.
func (v *VProc) Read(readCh int) (Message, bool) {
	r := v.step(vOp{kind: opRead, readCh: readCh})
	return r.msg, r.ok
}

// Idle spends one virtual cycle.
func (v *VProc) Idle() { v.step(vOp{kind: opIdle}) }

// SimulateUniform runs the same virtual program on every processor of a
// virtual MCB(pv, kv), hosted on an MCB(host.P, host.K). Requires
// pv >= host.P and kv >= host.K. The returned stats are the host network's
// (the measured simulation cost).
func SimulateUniform(host Config, pv, kv int, program func(*VProc)) (*Result, error) {
	if pv < host.P || kv < host.K {
		return nil, fmt.Errorf("mcb: simulation requires pv >= P and kv >= K (pv=%d P=%d kv=%d K=%d)", pv, host.P, kv, host.K)
	}
	q := (pv + host.P - 1) / host.P
	progs := make([]func(Node), host.P)
	for h := 0; h < host.P; h++ {
		hostID := h
		progs[h] = func(pr Node) {
			runHostDriver(pr, hostID, q, pv, kv, program)
		}
	}
	return Run(host, progs)
}

// runHostDriver executes the simulation loop for one host processor.
func runHostDriver(pr Node, hostID, q, pv, kv int, program func(*VProc)) {
	p, k := pr.P(), pr.K()
	G := (kv + k - 1) / k

	// Spawn my virtual processors. Virtual processor ids are dealt
	// round-robin: virtual id = slot*p + hostID.
	type slotState struct {
		vp   *VProc
		live bool
		op   vOp
		res  readResult
		got  bool
		err  error // panic from the virtual program, surfaced on exit
	}
	slots := make([]*slotState, q)
	// dead releases the virtual programs if this driver unwinds (abortPanic
	// from an engine op, host crash-stop): deferred closes run while a panic
	// propagates, so the virtual goroutines never outlive the run. Their
	// drain is asynchronous — Run's grace period covers only engine
	// processors — but prompt (one select per parked virtual program).
	dead := make(chan struct{})
	defer close(dead)
	var wg sync.WaitGroup
	for s := 0; s < q; s++ {
		vid := s*p + hostID
		if vid >= pv {
			slots[s] = &slotState{live: false}
			continue
		}
		vp := &VProc{id: vid, pv: pv, kv: kv, opCh: make(chan vOp), resCh: make(chan readResult), dead: dead}
		st := &slotState{vp: vp, live: true}
		slots[s] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				switch r := recover().(type) {
				case nil:
				case *vAbort:
					st.err = r
				case vDead:
					// The host driver died first; nothing to report.
				default:
					// A plain panic is wrapped as a vAbort too, so the
					// virtual processor id stays structured: hostAbort
					// raises an *AbortError carrying it, instead of
					// attributing the failure to whichever engine processor
					// stepped the virtual program.
					st.err = &vAbort{vproc: vp.id, msg: fmt.Sprintf("panicked: %v", r)}
				}
				close(vp.opCh)
			}()
			program(vp)
		}()
	}

	allDone := false
	for !allDone {
		// Collect one virtual-cycle op from each live virtual processor
		// (local computation: costs no host cycles).
		for _, st := range slots {
			st.got = false
			st.res = readResult{}
			if !st.live {
				st.op = vOp{kind: opIdle}
				continue
			}
			op, ok := <-st.vp.opCh
			if !ok {
				if st.err != nil {
					hostAbort(pr, st.err)
				}
				st.live = false
				st.op = vOp{kind: opIdle}
				continue
			}
			st.op = op
			st.got = true
		}

		// The q*q*G host cycles of one virtual cycle.
		for s := 0; s < q; s++ {
			for j := 0; j < q; j++ {
				for g := 0; g < G; g++ {
					ws := slots[s]
					doWrite := ws.op.kind == opWrite || ws.op.kind == opWriteRead
					doWrite = doWrite && ws.op.writeCh/k == g
					rs := slots[j]
					doRead := (rs.op.kind == opRead || rs.op.kind == opWriteRead) &&
						rs.op.readCh/k == g && !rs.res.ok
					switch {
					case doWrite && doRead:
						m, ok := pr.WriteRead(ws.op.writeCh%k, ws.op.msg, rs.op.readCh%k)
						if ok {
							rs.res = readResult{msg: m, ok: true}
						}
					case doWrite:
						pr.Write(ws.op.writeCh%k, ws.op.msg)
					case doRead:
						m, ok := pr.Read(rs.op.readCh % k)
						if ok {
							rs.res = readResult{msg: m, ok: true}
						}
					default:
						pr.Idle()
					}
				}
			}
		}

		// Deliver results to the virtual processors that stepped.
		for _, st := range slots {
			if st.got {
				st.vp.resCh <- st.res
			}
		}

		// Termination detection: tree AND-reduction of "all my virtual
		// processors have finished", then a broadcast of the verdict.
		mineDone := true
		for _, st := range slots {
			if st.live {
				mineDone = false
			}
		}
		allDone = andReduce(pr, mineDone)
	}
	wg.Wait()
}

// andReduce computes the logical AND of one bit per processor at every
// processor: the Partial-Sums bottom-up tree (min operator) followed by a
// broadcast from processor 0. O(p/k + log k) cycles, O(p) messages.
func andReduce(pr Node, bit bool) bool {
	p, k, id := pr.P(), pr.K(), pr.ID()
	if p == 1 {
		return bit
	}
	val := int64(1)
	if !bit {
		val = 0
	}
	levels := 0
	for 1<<levels < p {
		levels++
	}
	node := val
	for l := 0; l < levels; l++ {
		span := 1 << (l + 1)
		parents := (p + span - 1) / span
		batches := (parents + k - 1) / k
		for b := 0; b < batches; b++ {
			inBatch := func(x int) bool { return x >= b*k && x < (b+1)*k }
			switch {
			case id%span == span/2 && inBatch(id/span):
				pr.Write(id/span%k, MsgX(0x7e, node))
			case id%span == 0 && inBatch(id/span):
				m, ok := pr.Read(id / span % k)
				r := int64(1) // a missing (virtual) right child is vacuously done
				if ok {
					r = m.X
				}
				if r < node {
					node = r
				}
			default:
				pr.Idle()
			}
		}
	}
	var verdict int64
	if id == 0 {
		verdict = node
		pr.Write(0, MsgX(0x7e, verdict))
	} else {
		m, ok := pr.Read(0)
		if !ok {
			panic("mcb: missing and-reduce verdict")
		}
		verdict = m.X
	}
	return verdict == 1
}
