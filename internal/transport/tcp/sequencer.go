package tcp

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcbnet/internal/mcb"
	"mcbnet/internal/transport"
)

// SequencerOptions configures the round sequencer process.
type SequencerOptions struct {
	// Addr is the TCP listen address ("127.0.0.1:0" for an ephemeral port).
	Addr string
	// Job names the computation; peers must hello with the same name.
	Job string
	// P is the network size; peer ranges must partition [0, P).
	P int
	// Index is this sequencer's position in the peer file's ordered candidate
	// list and Candidates is that list's length. Session epoch e is served by
	// candidate e mod Candidates, so this sequencer starts at epoch Index and
	// only ever adopts a higher epoch that maps back to it (a promotion, or a
	// wrap-around after every other candidate was consumed). Zero values mean
	// a single-sequencer group (candidate 0 of 1), which stays at epoch 0
	// forever — the failover machinery is inert for it.
	Index, Candidates int
	// HeartbeatEvery paces liveness frames on idle connections (default
	// 500ms). PeerTimeout is the per-read deadline — a connection silent for
	// this long is declared dead (default 5s). WriteTimeout bounds each
	// frame write (default 10s).
	HeartbeatEvery, PeerTimeout, WriteTimeout time.Duration
	// GatherTimeout bounds how long the sequencer waits for every processor
	// range to be covered by a proposing peer before failing the waiting
	// peers with a StallError naming the missing ranges; they retry, so a
	// killed peer has this long per attempt to rejoin (default 2 minutes).
	GatherTimeout time.Duration
	// AbortGrace is passed to the engine runs (default: engine default).
	AbortGrace time.Duration
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
	// Wrap, when non-nil, wraps every accepted connection (chaos tests).
	Wrap func(net.Conn) net.Conn
}

func (o *SequencerOptions) defaults() {
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = 500 * time.Millisecond
	}
	if o.PeerTimeout <= 0 {
		o.PeerTimeout = 5 * time.Second
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = 10 * time.Second
	}
	if o.GatherTimeout <= 0 {
		o.GatherTimeout = 2 * time.Minute
	}
	if o.Candidates <= 0 {
		o.Candidates = 1
	}
}

// Sequencer accepts peer connections and runs their proposed engine rounds
// on the real in-process engine: each remote processor is a relay goroutine
// that replays the peer's cycle ops into a local mcb.Node, so resolveMerge /
// resolveGeneral, the fault plane, stats and phase accounting are the
// engine's own code and a distributed Report is byte-identical to an
// in-process one.
type Sequencer struct {
	opt SequencerOptions
	ln  net.Listener

	events chan seqEvent
	round  atomic.Pointer[roundState]

	mu       sync.Mutex
	byName   map[string]*seqConn
	inflight map[net.Conn]struct{} // handshakes pending; Close cuts them short
	epoch    uint64                // invariant: every alive conn was admitted at this epoch
	hadPeers bool
	roundNum uint64

	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

type seqEvent struct {
	kind int // evProposal, evDied, evAbort
	conn *seqConn
	msg  string
}

const (
	evProposal = iota + 1
	evDied
	evAbort
)

type proposal struct {
	kind  int // pRound, pXchg, pBye
	tag   string
	cfg   []byte
	blobs [][]byte // xchg: blobs for [lo, hi)
}

const (
	pRound = iota + 1
	pXchg
	pBye
)

// roundState routes fOps frames to the relay mailboxes of the active round.
type roundState struct {
	num    uint64
	lo     int // always 0; kept for clarity of indexing
	boxes  []*mailbox
	abortC chan struct{}
	cancel context.CancelCauseFunc
}

// mailbox is the unbounded per-processor op queue between a connection
// reader and a relay goroutine. Unbounded so a reader never blocks on a
// slow relay (a blocked reader would wedge the whole connection, including
// the other processors' ops the cycle is waiting for).
type mailbox struct {
	mu  sync.Mutex
	q   []boxedOp
	sig chan struct{}
}

type boxedOp struct {
	op   wireOp
	from *seqConn
}

func newMailbox() *mailbox { return &mailbox{sig: make(chan struct{}, 1)} }

func (b *mailbox) push(op wireOp, from *seqConn) {
	b.mu.Lock()
	b.q = append(b.q, boxedOp{op, from})
	b.mu.Unlock()
	select {
	case b.sig <- struct{}{}:
	default:
	}
}

// pop blocks for the next op; aborted=true reports that the round failed
// (abortC closed) and the relay must leave the protocol.
func (b *mailbox) pop(abortC <-chan struct{}) (boxedOp, bool) {
	for {
		b.mu.Lock()
		if len(b.q) > 0 {
			op := b.q[0]
			b.q = b.q[1:]
			b.mu.Unlock()
			return op, false
		}
		b.mu.Unlock()
		select {
		case <-b.sig:
		case <-abortC:
			return boxedOp{}, true
		}
	}
}

// seqConn is one peer connection.
type seqConn struct {
	s     *Sequencer
	c     net.Conn
	name  string
	lo    int
	hi    int
	epoch uint64 // the epoch this connection was admitted at; immutable

	out      chan outMsg
	dead     chan struct{}
	deadOnce sync.Once

	mu    sync.Mutex
	prop  *proposal
	alive bool
}

type outMsg struct {
	typ byte
	pay []byte
}

// NewSequencer listens on opt.Addr; call Serve to run the session.
func NewSequencer(opt SequencerOptions) (*Sequencer, error) {
	opt.defaults()
	if opt.Index < 0 || opt.Index >= opt.Candidates {
		return nil, fmt.Errorf("tcp: sequencer candidate index %d outside [0, %d)", opt.Index, opt.Candidates)
	}
	ln, err := net.Listen("tcp", opt.Addr)
	if err != nil {
		return nil, err
	}
	return &Sequencer{
		opt:      opt,
		ln:       ln,
		events:   make(chan seqEvent, 256),
		byName:   make(map[string]*seqConn),
		inflight: make(map[net.Conn]struct{}),
		epoch:    uint64(opt.Index),
		closed:   make(chan struct{}),
	}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Sequencer) Addr() string { return s.ln.Addr().String() }

// Epoch returns the sequencer's current epoch (diagnostics and tests).
func (s *Sequencer) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

func (s *Sequencer) logf(format string, args ...any) {
	if s.opt.Logf != nil {
		s.opt.Logf(format, args...)
	}
}

// Close tears the sequencer down: the listener and every connection close
// and Serve returns.
func (s *Sequencer) Close() error {
	s.closeOnce.Do(func() { close(s.closed); s.ln.Close() })
	s.mu.Lock()
	conns := make([]*seqConn, 0, len(s.byName))
	for _, sc := range s.byName {
		conns = append(conns, sc)
	}
	pending := make([]net.Conn, 0, len(s.inflight))
	for c := range s.inflight {
		pending = append(pending, c)
	}
	s.mu.Unlock()
	// Cut in-flight handshakes short: without this, wg.Wait would block for
	// up to PeerTimeout on a connection that never sent its hello.
	for _, c := range pending {
		c.Close()
	}
	for _, sc := range conns {
		sc.die(fmt.Errorf("sequencer closed"))
	}
	s.wg.Wait()
	return nil
}

// Serve accepts peers and executes their collective proposals — engine
// rounds, boundary exchanges — until every peer says bye, ctx is cancelled,
// or Close is called. It is the whole session loop of a distributed run.
func (s *Sequencer) Serve(ctx context.Context) error {
	// A sequencer whose session loop has returned must not keep accepting:
	// a standalone process would have exited, taking its listener with it.
	// Leaving the listener open would admit peers into a session nobody
	// drives — they would hang instead of sweeping to the next candidate.
	defer s.closeOnce.Do(func() { close(s.closed); s.ln.Close() })
	s.wg.Add(1)
	go s.acceptLoop()

	gather := time.NewTimer(s.opt.GatherTimeout)
	defer gather.Stop()
	for {
		select {
		case <-s.closed:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-gather.C:
			if done, err := s.onGatherTimeout(); done {
				return err
			}
			gather.Reset(s.opt.GatherTimeout)
		case ev := <-s.events:
			if ev.kind != evProposal && ev.kind != evDied {
				continue // stray abort outside a round
			}
			peers, ok := s.ready()
			if !ok {
				continue
			}
			done, err := s.execute(ctx, peers)
			if done {
				return err
			}
			if !gather.Stop() {
				select {
				case <-gather.C:
				default:
				}
			}
			gather.Reset(s.opt.GatherTimeout)
		}
	}
}

// ready reports whether the alive peers cover [0, P) exactly and all have a
// pending proposal; it returns them ordered by range.
func (s *Sequencer) ready() ([]*seqConn, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var peers []*seqConn
	for _, sc := range s.byName {
		sc.mu.Lock()
		alive, prop := sc.alive, sc.prop
		sc.mu.Unlock()
		if !alive {
			continue
		}
		if prop == nil {
			return nil, false
		}
		peers = append(peers, sc)
	}
	if len(peers) == 0 {
		return nil, false
	}
	for i := 0; i < len(peers); i++ {
		for j := i + 1; j < len(peers); j++ {
			if peers[j].lo < peers[i].lo {
				peers[i], peers[j] = peers[j], peers[i]
			}
		}
	}
	next := 0
	for _, sc := range peers {
		if sc.lo != next {
			return nil, false
		}
		next = sc.hi
	}
	if next != s.opt.P {
		return nil, false
	}
	return peers, true
}

// onGatherTimeout fails every waiting peer with a StallError naming the
// uncovered processor ranges (they retry and re-propose), or ends the
// session when every peer is gone and none came back.
func (s *Sequencer) onGatherTimeout() (sessionOver bool, err error) {
	s.mu.Lock()
	var alive []*seqConn
	for _, sc := range s.byName {
		sc.mu.Lock()
		if sc.alive {
			alive = append(alive, sc)
		}
		sc.mu.Unlock()
	}
	hadPeers := s.hadPeers
	s.mu.Unlock()
	if len(alive) == 0 {
		if hadPeers {
			return true, &transport.LinkError{Peer: "peers", Op: "gather", Err: fmt.Errorf("all peers lost and none rejoined within %v", s.opt.GatherTimeout)}
		}
		return false, nil
	}
	// Some peers wait; name the missing processors so the diagnostics say
	// who is being waited for.
	covered := make([]bool, s.opt.P)
	waiting := false
	for _, sc := range alive {
		sc.mu.Lock()
		if sc.prop != nil {
			waiting = true
		}
		sc.mu.Unlock()
		for i := sc.lo; i < sc.hi && i < s.opt.P; i++ {
			covered[i] = true
		}
	}
	if !waiting {
		return false, nil // nobody is blocked on the gather
	}
	var missing []mcb.ProcState
	for i, c := range covered {
		if !c {
			missing = append(missing, mcb.ProcState{Proc: i, LastOp: "unjoined"})
		}
	}
	stall := &mcb.StallError{Timeout: s.opt.GatherTimeout, Cycle: -1, Stalled: missing}
	s.logf("gather timeout: failing %d waiting peer(s): %v", len(alive), stall)
	for _, sc := range alive {
		sc.mu.Lock()
		sc.prop = nil
		sc.mu.Unlock()
		sc.send(fFail, marshal(failBody{Err: encodeErr(stall)}))
	}
	return false, nil
}

// execute runs one agreed collective step. sessionOver reports that Serve
// should return.
func (s *Sequencer) execute(ctx context.Context, peers []*seqConn) (sessionOver bool, err error) {
	props := make([]*proposal, len(peers))
	for i, sc := range peers {
		sc.mu.Lock()
		props[i] = sc.prop
		sc.prop = nil
		sc.mu.Unlock()
	}
	kind := props[0].kind
	// A rejoining peer opens its attempt with a phase-sync exchange. The
	// rest of the group may be blocked proposing a different step without
	// ever having seen a failed attempt (the peer died exactly at a round
	// boundary, so the survivors just stalled in this gather) — that is a
	// recoverable disagreement, not a driver divergence: fail the step
	// retryably so every driver backs off and re-proposes the sync.
	resync := -1
	for i, p := range props {
		if p.kind == pXchg && strings.HasSuffix(p.tag, ":phase-sync") {
			resync = i
			break
		}
	}
	for i, p := range props {
		if p.kind != kind || p.tag != props[0].tag || string(p.cfg) != string(props[0].cfg) {
			if resync >= 0 {
				rs := &transport.LinkError{Peer: peers[resync].name, Op: "resync",
					Err: fmt.Errorf("peer rejoined and requested a phase resync")}
				s.logf("peer %q requested a phase resync; failing the step retryably for all peers", peers[resync].name)
				for _, sc := range peers {
					sc.send(fFail, marshal(failBody{Err: encodeErr(rs)}))
				}
				return false, nil
			}
			// The peers' drivers diverged — they are no longer executing the
			// same deterministic computation. Fatal and not retryable: a
			// retry would diverge identically.
			div := fmt.Errorf("tcp: protocol divergence: peer %q proposed a different step than peer %q (kind %d vs %d, tag %q vs %q)",
				peers[i].name, peers[0].name, p.kind, kind, p.tag, props[0].tag)
			s.logf("%v", div)
			for _, sc := range peers {
				sc.send(fFail, marshal(failBody{Err: encodeErr(div)}))
			}
			return false, nil
		}
	}
	switch kind {
	case pBye:
		s.logf("all peers done")
		return true, nil
	case pXchg:
		merged := make([][]byte, s.opt.P)
		for i, sc := range peers {
			for j, b := range props[i].blobs {
				if idx := sc.lo + j; idx < s.opt.P {
					merged[idx] = b
				}
			}
		}
		pay := marshal(xchgAllBody{Tag: props[0].tag, Blobs: merged})
		for _, sc := range peers {
			sc.send(fXchgAll, pay)
		}
		return false, nil
	case pRound:
		s.runRound(ctx, peers, props[0].cfg)
		return false, nil
	}
	return false, nil
}

// runRound executes one engine round over the peers' relayed processors.
func (s *Sequencer) runRound(ctx context.Context, peers []*seqConn, cfgJSON []byte) {
	cfg, err := decodeConfig(cfgJSON)
	if err == nil && cfg.P != s.opt.P {
		err = fmt.Errorf("tcp: round config P=%d, sequencer serves P=%d", cfg.P, s.opt.P)
	}
	if err != nil {
		for _, sc := range peers {
			sc.send(fFail, marshal(failBody{Err: encodeErr(err)}))
		}
		return
	}
	cfg.AbortC = make(chan struct{})
	cfg.AbortGrace = s.opt.AbortGrace

	s.mu.Lock()
	s.roundNum++
	num := s.roundNum
	s.mu.Unlock()

	rctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	rs := &roundState{num: num, abortC: cfg.AbortC, cancel: cancel}
	rs.boxes = make([]*mailbox, cfg.P)
	progs := make([]func(mcb.Node), cfg.P)
	for i := range rs.boxes {
		rs.boxes[i] = newMailbox()
		progs[i] = relayProgram(rs, i)
	}
	s.round.Store(rs)
	defer s.round.Store(nil)

	type runOut struct {
		res *mcb.Result
		err error
	}
	resCh := make(chan runOut, 1)
	go func() {
		r, rerr := mcb.RunContext(rctx, cfg, progs)
		resCh <- runOut{r, rerr}
	}()

	s.logf("round %d: %d peers, p=%d k=%d", num, len(peers), cfg.P, cfg.K)
	startPay := marshal(startBody{Round: num})
	for _, sc := range peers {
		sc.send(fStart, startPay)
	}

	var out runOut
	for waiting := true; waiting; {
		select {
		case out = <-resCh:
			waiting = false
		case ev := <-s.events:
			member := false
			for _, sc := range peers {
				if sc == ev.conn {
					member = true
				}
			}
			if !member {
				continue // a rejoiner's event; not part of this round
			}
			switch ev.kind {
			case evDied:
				// A peer link died mid-round: its processors will never op
				// again, so fail fast with the diagnosis the watchdog would
				// eventually produce — a stall attributed to that peer's
				// processors — rather than waiting out the stall timeout.
				stalled := make([]mcb.ProcState, 0, ev.conn.hi-ev.conn.lo)
				for p := ev.conn.lo; p < ev.conn.hi; p++ {
					stalled = append(stalled, mcb.ProcState{Proc: p, LastOp: "link-lost"})
				}
				cancel(&mcb.StallError{Timeout: s.opt.PeerTimeout, Cycle: -1, Stalled: stalled})
				s.logf("round %d: peer %q lost (%s); aborting", num, ev.conn.name, ev.msg)
			case evAbort:
				cancel(&mcb.AbortError{Proc: -1, VProc: -1, Msg: "peer " + ev.conn.name + " cancelled: " + ev.msg})
			case evProposal:
				// A proposal cannot arrive from a peer participating in this
				// round (its Run blocks until fDone); it is a rejoiner ahead
				// of the next gather. Leave it pending.
			}
		case <-ctx.Done():
			cancel(context.Cause(ctx))
		}
	}

	done := doneBody{Round: num, Err: encodeErr(out.err)}
	if out.res != nil {
		done.Stats = &out.res.Stats
	}
	pay := marshal(done)
	s.mu.Lock()
	var alive []*seqConn
	for _, sc := range s.byName {
		sc.mu.Lock()
		if sc.alive {
			alive = append(alive, sc)
		}
		sc.mu.Unlock()
	}
	s.mu.Unlock()
	for _, sc := range alive {
		sc.send(fDone, pay)
	}
	if out.err != nil {
		s.logf("round %d failed: %v", num, out.err)
	} else {
		s.logf("round %d ok: %d cycles, %d messages", num, out.res.Stats.Cycles, out.res.Stats.Messages)
	}
}

// relayProgram returns the engine program standing in for remote processor
// id: it replays the ops the owning peer sends, one cycle at a time, and
// ships each cycle's result back. Crash-stops fire inside the node ops
// (panicking this goroutine exactly like a local processor); engine aborts
// close abortC, which unwinds the relay through the normal exit path.
func relayProgram(rs *roundState, id int) func(mcb.Node) {
	return func(n mcb.Node) {
		box := rs.boxes[id]
		for {
			bop, aborted := box.pop(rs.abortC)
			if aborted {
				return
			}
			op := bop.op
			for _, ph := range op.Phases {
				n.Phase(ph)
			}
			var msg mcb.Message
			if op.Msg != nil {
				msg = *op.Msg
			}
			res := wireRes{Proc: id}
			switch op.Kind {
			case wExit:
				return
			case wAux:
				n.AccountAux(op.N)
				continue // pure accounting: no cycle, no ack
			case wAbort:
				n.Abortf("%s", op.Str) // does not return
			case wWrite:
				n.Write(op.WCh, msg)
			case wRead:
				res.Msg, res.OK = n.Read(op.RCh)
			case wWriteRead:
				res.Msg, res.OK = n.WriteRead(op.WCh, msg, op.RCh)
			case wIdle:
				n.Idle()
			case wIdleN:
				n.IdleN(int(op.N))
			default:
				n.Abortf("tcp: unknown wire op kind %d", op.Kind)
			}
			bop.from.send(fResults, marshal(resultsBody{Round: rs.num, Res: []wireRes{res}}))
		}
	}
}

// acceptLoop admits peer connections.
func (s *Sequencer) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if s.opt.Wrap != nil {
			c = s.opt.Wrap(c)
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handshake(c)
		}()
	}
}

// track registers an in-flight handshake connection so Close can cut it
// short; reports false when the sequencer is already closed.
func (s *Sequencer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closed:
		return false
	default:
	}
	s.inflight[c] = struct{}{}
	return true
}

func (s *Sequencer) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.inflight, c)
	s.mu.Unlock()
}

// handshake admits one connection: hello in, welcome out, then the
// connection joins the session. The hello frame's header epoch is the peer's
// claim about which sequencer generation it is in; admission negotiates it
// against s.epoch (see the epoch rules on the frame format in frame.go).
func (s *Sequencer) handshake(c net.Conn) {
	if !s.track(c) {
		c.Close()
		return
	}
	defer s.untrack(c)
	fr := newFrameReader(bufio.NewReader(c))
	c.SetReadDeadline(time.Now().Add(s.opt.PeerTimeout))
	f, err := fr.read()
	if err != nil || f.typ != fHello {
		c.Close()
		return
	}
	var hello helloBody
	if err := jsonUnmarshal(f.pay, &hello); err != nil {
		c.Close()
		return
	}
	reject := func(reason string, cur uint64, transient bool) {
		// The reject welcome echoes the hello's header epoch so the peer's
		// reader accepts the frame whatever epoch it is in; the body's Epoch
		// carries the group's actual position so a stale peer can catch up.
		buf := appendFrame(nil, fWelcome, 1, f.epoch, marshal(welcomeBody{OK: false, Reason: reason, P: s.opt.P, Epoch: cur, Retry: transient}))
		c.SetWriteDeadline(time.Now().Add(s.opt.WriteTimeout))
		c.Write(buf)
		c.Close()
	}
	if s.opt.Job != "" && hello.Job != s.opt.Job {
		reject(fmt.Sprintf("job %q, sequencer serves %q", hello.Job, s.opt.Job), s.Epoch(), false)
		return
	}
	if hello.Lo < 0 || hello.Hi > s.opt.P || hello.Hi <= hello.Lo {
		reject(fmt.Sprintf("range [%d, %d) outside [0, %d)", hello.Lo, hello.Hi, s.opt.P), s.Epoch(), false)
		return
	}
	sc := &seqConn{s: s, c: c, name: hello.Name, lo: hello.Lo, hi: hello.Hi,
		out: make(chan outMsg, 256), dead: make(chan struct{})}
	cands := uint64(s.opt.Candidates)
	s.mu.Lock()
	he, cur := f.epoch, s.epoch
	if he < cur {
		s.mu.Unlock()
		reject(fmt.Sprintf("stale epoch %d, group is at epoch %d", he, cur), cur, false)
		return
	}
	if he%cands != uint64(s.opt.Index) {
		s.mu.Unlock()
		reject(fmt.Sprintf("epoch %d is served by candidate %d, this sequencer is candidate %d (misconfigured peer file?)", he, he%cands, s.opt.Index), cur, false)
		return
	}
	if he > cur {
		// A promotion, or a wrap-around back to this candidate: adopt the
		// higher epoch.
		s.epoch = he
		cur = he
		s.logf("adopting epoch %d (hello from %q); fencing older connections", he, hello.Name)
	}
	// Fence every connection from an older generation — zombie-epoch traffic
	// must not reach the current session. die() can block on the events
	// channel, so it runs after the lock is released; until then a fenced
	// conn's alive flag still reads true, which is why staleness is judged by
	// epoch, not liveness.
	var fenced []*seqConn
	for _, old := range s.byName {
		old.mu.Lock()
		stale := old.alive && old.epoch < cur
		old.mu.Unlock()
		if stale {
			fenced = append(fenced, old)
		}
	}
	if old, ok := s.byName[hello.Name]; ok {
		old.mu.Lock()
		dup := old.alive && old.epoch == cur
		old.mu.Unlock()
		if dup {
			s.mu.Unlock()
			for _, oc := range fenced {
				oc.die(fmt.Errorf("fenced: superseded by epoch %d", cur))
			}
			// Transient: a peer that tore down and redialed can beat its own
			// FIN here, so its previous connection still reads alive. By the
			// peer's next sweep attempt the old conn is reaped; only a genuine
			// name collision keeps being rejected until the sweep is exhausted.
			reject(fmt.Sprintf("peer %q already connected", hello.Name), cur, true)
			return
		}
	}
	sc.epoch = cur
	s.byName[hello.Name] = sc
	s.hadPeers = true
	sc.mu.Lock()
	sc.alive = true
	sc.mu.Unlock()
	s.mu.Unlock()
	for _, oc := range fenced {
		oc.die(fmt.Errorf("fenced: superseded by epoch %d", cur))
	}
	s.logf("peer %q joined at epoch %d: procs [%d, %d)%s", hello.Name, cur, hello.Lo, hello.Hi,
		map[bool]string{true: " (resume)", false: ""}[hello.Resume])

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sc.writeLoop()
	}()
	sc.send(fWelcome, marshal(welcomeBody{OK: true, P: s.opt.P, Epoch: cur}))
	sc.readLoop(fr)
}

// die marks the connection dead exactly once and tells the orchestrator.
func (sc *seqConn) die(err error) {
	sc.deadOnce.Do(func() {
		sc.mu.Lock()
		sc.alive = false
		sc.prop = nil
		sc.mu.Unlock()
		close(sc.dead)
		sc.c.Close()
		msg := "closed"
		if err != nil {
			msg = err.Error()
		}
		select {
		case sc.s.events <- seqEvent{kind: evDied, conn: sc, msg: msg}:
		case <-sc.s.closed:
		}
	})
}

// send enqueues one frame; drops it if the connection is dead.
func (sc *seqConn) send(typ byte, pay []byte) {
	select {
	case sc.out <- outMsg{typ, pay}:
	case <-sc.dead:
	}
}

func (sc *seqConn) writeLoop() {
	hb := time.NewTicker(sc.s.opt.HeartbeatEvery)
	defer hb.Stop()
	var seq uint32
	var buf []byte
	write := func(typ byte, pay []byte) bool {
		seq++
		buf = appendFrame(buf[:0], typ, seq, sc.epoch, pay)
		sc.c.SetWriteDeadline(time.Now().Add(sc.s.opt.WriteTimeout))
		if _, err := sc.c.Write(buf); err != nil {
			sc.die(&transport.LinkError{Peer: sc.name, Op: "write", Err: err})
			return false
		}
		return true
	}
	for {
		select {
		case <-sc.dead:
			return
		case m := <-sc.out:
			if !write(m.typ, m.pay) {
				return
			}
		case <-hb.C:
			if !write(fHeartbeat, nil) {
				return
			}
		}
	}
}

func (sc *seqConn) readLoop(fr *frameReader) {
	var win seqWindow
	win.last = 1 // the hello consumed seq 1
	for {
		sc.c.SetReadDeadline(time.Now().Add(sc.s.opt.PeerTimeout))
		f, err := fr.read()
		if err != nil {
			sc.die(&transport.LinkError{Peer: sc.name, Op: "read", Err: err})
			return
		}
		if f.epoch != sc.epoch {
			sc.die(&transport.LinkError{Peer: sc.name, Op: "frame",
				Err: fmt.Errorf("epoch %d frame on an epoch %d session", f.epoch, sc.epoch)})
			return
		}
		dup, err := win.admit(f.seq)
		if err != nil {
			sc.die(&transport.LinkError{Peer: sc.name, Op: "frame", Err: err})
			return
		}
		if dup {
			continue
		}
		switch f.typ {
		case fHeartbeat:
		case fOps:
			var body opsBody
			if err := jsonUnmarshal(f.pay, &body); err != nil {
				sc.die(&transport.LinkError{Peer: sc.name, Op: "frame", Err: err})
				return
			}
			rs := sc.s.round.Load()
			if rs == nil || rs.num != body.Round {
				continue // stale ops from a finished round
			}
			for _, op := range body.Ops {
				if op.Proc < 0 || op.Proc >= len(rs.boxes) {
					continue
				}
				rs.boxes[op.Proc].push(op, sc)
			}
		case fRound:
			var body roundBody
			if err := jsonUnmarshal(f.pay, &body); err != nil {
				sc.die(&transport.LinkError{Peer: sc.name, Op: "frame", Err: err})
				return
			}
			// body.Cfg is a json.RawMessage aliasing the frameReader's scratch
			// buffer, and the proposal outlives this read — copy it.
			sc.propose(&proposal{kind: pRound, tag: body.Tag, cfg: append([]byte(nil), body.Cfg...)})
		case fXchg:
			var body xchgBody
			if err := jsonUnmarshal(f.pay, &body); err != nil {
				sc.die(&transport.LinkError{Peer: sc.name, Op: "frame", Err: err})
				return
			}
			sc.propose(&proposal{kind: pXchg, tag: body.Tag, blobs: body.Blobs})
		case fBye:
			sc.propose(&proposal{kind: pBye})
		case fAbort:
			var body abortBody
			jsonUnmarshal(f.pay, &body)
			select {
			case sc.s.events <- seqEvent{kind: evAbort, conn: sc, msg: body.Msg}:
			case <-sc.s.closed:
			}
		default:
			sc.die(&transport.LinkError{Peer: sc.name, Op: "frame", Err: fmt.Errorf("unexpected frame type %d", f.typ)})
			return
		}
	}
}

func (sc *seqConn) propose(p *proposal) {
	sc.mu.Lock()
	sc.prop = p
	sc.mu.Unlock()
	select {
	case sc.s.events <- seqEvent{kind: evProposal, conn: sc}:
	case <-sc.s.closed:
	}
}
