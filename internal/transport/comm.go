package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"parsample/internal/comm"
	"parsample/internal/faultinject"
)

// errAborted is the structured error a run returns when it was unwound by
// a local abort (cancelled context, Rank.Abort) rather than a transport
// failure.
var errAborted = errors.New("transport: run aborted")

// Default timeouts. Handshakes and teardown waits are bounded so a dead
// peer fails the run instead of wedging it; in-run receives are unbounded
// as in-process (cancellation arrives via ctx-driven abort or a peer
// failure, either of which wakes every blocked primitive).
const (
	dialTimeout  = 10 * time.Second
	helloTimeout = 10 * time.Second
	writeTimeout = 30 * time.Second
	drainTimeout = 30 * time.Second
)

// meshConfig describes one rank's seat in a job's mesh.
type meshConfig struct {
	jobID uint64
	self  int
	p     int
	model comm.CostModel
	addrs []string // addrs[r] = listen address of rank r's process
}

// Comm is the TCP communicator for one job: it hosts exactly one local
// rank (self) and reaches the other P-1 over per-peer connections. It
// implements comm.Comm, and comm.Link for its rank's engine; sampling
// kernels run on it unchanged.
type Comm struct {
	cfg  meshConfig
	rank *comm.Rank

	peers []*peer // peers[r], nil at self
	wg    sync.WaitGroup

	// Send-side state, touched only by the rank goroutine.
	seqOut []int64 // next fData sequence number, by destination
	gen    uint64  // collective generation counter (lockstep across ranks)

	mu   sync.Mutex
	cond *sync.Cond
	// Receive-side state, all guarded by mu.
	seqIn       []int64        // next expected fData sequence, by source
	collDeposit []*collDeposit // rank 0: one pending deposit slot per source
	collResp    *comm.Snapshot // non-zero ranks: rank 0's snapshot for the open generation
	collRespGen uint64
	statsIn     []*remoteStats // rank 0: end-of-run accounting per source
	statsAcked  bool           // non-zero ranks: rank 0 confirmed our stats
	statsSent   bool           // non-zero ranks: our kernel is done and the counters shipped
	aborted     bool
	done        bool  // run complete; subsequent teardown EOFs are benign
	failErr     error // first transport failure or abort cause

	rankWall float64 // measured wall seconds the rank spent in its kernel
	wall     float64 // measured wall seconds of the whole Run
}

var _ comm.Comm = (*Comm)(nil)

// collDeposit is one rank's contribution to the collective generation
// rank 0 is assembling.
type collDeposit struct {
	gen   uint64
	op    byte
	root  int
	clock float64
	size  int
	val   any
}

// remoteStats is one remote rank's end-of-run accounting.
type remoteStats struct {
	ops         int64
	clock, wall float64
	traffic     comm.Traffic
}

// newSeat builds one rank's seat in a job before any connection exists:
// the local rank's engine linked to this Comm, and the receive-side state.
func newSeat(cfg meshConfig) *Comm {
	c := &Comm{
		cfg:    cfg,
		peers:  make([]*peer, cfg.p),
		seqOut: make([]int64, cfg.p),
		seqIn:  make([]int64, cfg.p),
	}
	c.cond = sync.NewCond(&c.mu)
	c.rank = comm.NewRank(cfg.self, cfg.p, cfg.model, c)
	if cfg.self == 0 {
		c.collDeposit = make([]*collDeposit, cfg.p)
		c.statsIn = make([]*remoteStats, cfg.p)
	}
	return c
}

// newComm forms the mesh for one rank: it dials every lower rank and
// waits for every higher rank to dial in through the intake the acceptor
// routes data connections to. On any failure the partially-formed mesh is
// torn down and an error returned.
func newComm(cfg meshConfig, intake *meshIntake) (*Comm, error) {
	c := newSeat(cfg)
	fail := func(err error) (*Comm, error) {
		c.markDone()
		c.Close()
		return nil, err
	}
	for r := 0; r < cfg.self; r++ {
		conn, br, err := dialPeer(cfg.addrs[r], cfg.jobID, cfg.self)
		if err != nil {
			return fail(fmt.Errorf("transport: rank %d dialing rank %d: %w", cfg.self, r, err))
		}
		c.peers[r] = newPeer(r, conn, br)
	}
	for r := cfg.self + 1; r < cfg.p; r++ {
		conn, br, err := intake.take(r, time.Now().Add(dialTimeout))
		if err != nil {
			return fail(fmt.Errorf("transport: rank %d waiting for rank %d to connect: %w", cfg.self, r, err))
		}
		c.peers[r] = newPeer(r, conn, br)
	}
	for _, p := range c.peers {
		if p == nil {
			continue
		}
		c.wg.Add(2)
		go func(p *peer) { defer c.wg.Done(); p.writeLoop() }(p)
		go func(p *peer) { defer c.wg.Done(); c.readLoop(p) }(p)
	}
	return c, nil
}

// dialPeer opens a data connection to a lower rank's listener and runs
// the hello/ack version negotiation.
func dialPeer(addr string, jobID uint64, fromRank int) (net.Conn, *bufio.Reader, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		tc.SetKeepAlive(true)
	}
	conn.SetDeadline(time.Now().Add(helloTimeout))
	bw := bufio.NewWriter(conn)
	var e wenc
	e.u16(protoVersion)
	e.u8(helloData)
	e.u64(jobID)
	e.u32(uint32(fromRank))
	if err := writeFrame(bw, fHello, e.buf); err != nil {
		conn.Close()
		return nil, nil, err
	}
	br := bufio.NewReader(conn)
	typ, body, err := readFrame(br)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if typ != fHelloAck {
		conn.Close()
		return nil, nil, fmt.Errorf("transport: expected hello ack, got frame type %d", typ)
	}
	d := wdec{buf: body}
	ver := d.u16()
	if err := d.finish(); err != nil {
		conn.Close()
		return nil, nil, err
	}
	if ver != protoVersion {
		conn.Close()
		return nil, nil, fmt.Errorf("transport: peer speaks protocol %d, want %d", ver, protoVersion)
	}
	conn.SetDeadline(time.Time{})
	return conn, br, nil
}

// P returns the number of ranks in the job.
func (c *Comm) P() int { return c.cfg.p }

// Messages returns the point-to-point messages sent by the local rank.
func (c *Comm) Messages() int64 { return c.rank.Traffic().Messages }

// Bytes returns the point-to-point payload bytes sent by the local rank.
func (c *Comm) Bytes() int64 { return c.rank.Traffic().Bytes }

// CollMessages returns the modeled collective messages booked locally.
func (c *Comm) CollMessages() int64 { return c.rank.Traffic().CollMessages }

// CollBytes returns the modeled collective bytes booked locally.
func (c *Comm) CollBytes() int64 { return c.rank.Traffic().CollBytes }

// Run executes fn on the local rank. It returns once fn has finished or
// unwound and — on a clean run — the end-of-run stats exchange completed,
// so rank 0's FillStats sees every remote rank's accounting. The error is
// the first transport failure or abort cause; a clean run returns nil.
func (c *Comm) Run(fn func(r *comm.Rank)) error {
	start := time.Now()
	if c.rank.Run(fn) {
		c.fail(errAborted)
	}
	c.rankWall = time.Since(start).Seconds()
	if c.runErr() == nil {
		if err := c.statsPhase(); err != nil {
			c.fail(err)
		}
	}
	c.mu.Lock()
	c.wall = time.Since(start).Seconds()
	err := c.failErr
	if err == nil {
		c.done = true // teardown EOFs from here on are benign
	}
	c.mu.Unlock()
	return err
}

// statsPhase runs the end-of-run accounting exchange: every non-zero rank
// ships its counters to rank 0 and waits for the ack; rank 0 waits for
// all counters and acks each sender. The ack doubles as the teardown
// barrier — once it is through, both ends know no more frames are coming.
func (c *Comm) statsPhase() error {
	if c.cfg.p == 1 {
		return nil
	}
	deadline := time.Now().Add(drainTimeout)
	if c.cfg.self != 0 {
		t := c.rank.Traffic()
		var e wenc
		e.u32(uint32(c.cfg.self))
		e.i64(c.rank.Ops())
		e.f64(c.rank.Clock())
		e.f64(c.rankWall)
		e.i64(t.Messages)
		e.i64(t.Bytes)
		e.i64(t.CollMessages)
		e.i64(t.CollBytes)
		// Flag the teardown before the stats frame can reach rank 0: once
		// it does, any peer may receive its ack and hang up, and that EOF
		// must already read as benign here.
		c.mu.Lock()
		c.statsSent = true
		c.mu.Unlock()
		if err := c.post(0, fStats, e.buf); err != nil {
			return err
		}
		return c.wait(func() bool { return c.statsAcked }, deadline, "stats ack from rank 0")
	}
	err := c.wait(func() bool {
		for r := 1; r < c.cfg.p; r++ {
			if c.statsIn[r] == nil {
				return false
			}
		}
		return true
	}, deadline, "end-of-run stats from all ranks")
	if err != nil {
		return err
	}
	// The run is complete from this rank's point of view: mark done BEFORE
	// posting the acks, so a peer that receives its ack and closes cannot
	// race an EOF into the reader and retroactively fail a clean run.
	c.markDone()
	for r := 1; r < c.cfg.p; r++ {
		if err := c.post(r, fStatsAck, nil); err != nil {
			return err
		}
	}
	return nil
}

// wait blocks under mu until pred holds, the run aborts, or the deadline
// passes.
func (c *Comm) wait(pred func() bool, deadline time.Time, what string) error {
	timer := time.AfterFunc(time.Until(deadline), func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !pred() {
		if c.aborted {
			err := c.failErr
			if err == nil {
				err = errAborted
			}
			return err
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("transport: rank %d timed out waiting for %s", c.cfg.self, what)
		}
		c.cond.Wait()
	}
	return nil
}

// Aborted reports whether the run has been aborted.
func (c *Comm) Aborted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aborted
}

// Abort marks the run as aborted and wakes the local rank out of any
// blocking primitive; the abort fans out to peers as best-effort fAbort
// frames. Safe to call from any goroutine, more than once.
func (c *Comm) Abort() { c.fail(errAborted) }

// AbortOnCancel aborts the communicator when ctx is cancelled; the
// returned stop function releases the watcher.
func (c *Comm) AbortOnCancel(ctx context.Context) (stop func()) {
	release := context.AfterFunc(ctx, func() {
		c.fail(fmt.Errorf("transport: run cancelled: %w", context.Cause(ctx)))
	})
	return func() { release() }
}

// fail records the first failure, aborts the run, fans the abort out to
// peers, and unblocks everything. After a completed run it is a no-op, so
// teardown connection EOFs cannot retroactively fail a clean result.
func (c *Comm) fail(err error) {
	c.mu.Lock()
	if c.done || c.aborted {
		c.mu.Unlock()
		return
	}
	c.aborted = true
	c.failErr = err
	c.cond.Broadcast()
	c.mu.Unlock()
	c.rank.Interrupt()
	var e wenc
	e.str(err.Error())
	for _, p := range c.peers {
		if p != nil {
			p.enqueue(fAbort, e.buf) // best effort; the writer drains then closes
		}
	}
	for _, p := range c.peers {
		if p != nil {
			p.close()
		}
	}
}

// runErr returns the recorded failure, if any.
func (c *Comm) runErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failErr
}

// markDone suppresses failure recording (used by teardown paths that close
// connections on purpose).
func (c *Comm) markDone() {
	c.mu.Lock()
	c.done = true
	c.mu.Unlock()
}

// Close tears the mesh down and joins the per-peer goroutines. It must be
// called after Run (the Cluster and Worker job paths defer it); calling it
// without markDone/Run aborts an in-flight run first.
func (c *Comm) Close() {
	for _, p := range c.peers {
		if p != nil {
			p.close()
		}
	}
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
}

// FillStats copies the run's accounting into s. On rank 0 after a clean
// Run the per-rank vectors and counter totals cover the whole job (the
// stats exchange gathered every remote rank's accounting); on other ranks
// only the local rank's column is meaningful.
func (c *Comm) FillStats(s *comm.RunStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s.ResetRanks(c.cfg.p)
	s.AddRank(c.cfg.self, c.rank.Ops(), c.rank.Clock(), c.rankWall, c.rank.Traffic())
	for r, st := range c.statsIn { // rank 0 only
		if st != nil {
			s.AddRank(r, st.ops, st.clock, st.wall, st.traffic)
		}
	}
	s.WallSeconds = c.wall
	s.Measured = true
}

// post encodes and enqueues one frame to rank `to`, evaluating the
// transport.send failpoints on the way (the fault drill's "kill a worker
// mid-send" hook covers every data-bearing frame: point-to-point,
// collective, and stats).
func (c *Comm) post(to int, typ byte, body []byte) error {
	if err := faultinject.Eval("transport.send"); err != nil {
		return fmt.Errorf("transport: rank %d send to %d: %w", c.cfg.self, to, err)
	}
	if err := faultinject.Eval(fmt.Sprintf("transport.send.rank%d", c.cfg.self)); err != nil {
		return fmt.Errorf("transport: rank %d send to %d: %w", c.cfg.self, to, err)
	}
	p := c.peers[to]
	if p == nil {
		return fmt.Errorf("transport: rank %d has no connection to rank %d", c.cfg.self, to)
	}
	if !p.enqueue(typ, body) {
		return fmt.Errorf("transport: rank %d connection to rank %d is closed", c.cfg.self, to)
	}
	return nil
}

// readLoop drains one peer connection, dispatching frames into the
// receive-side state. Any read or protocol error fails the run; after a
// completed run (done set) the teardown EOF is benign, as is a non-zero
// peer hanging up once this rank has shipped its stats — that peer got
// its ack and closed first, and only rank 0's channel still matters while
// we wait for ours.
func (c *Comm) readLoop(p *peer) {
	for {
		typ, body, err := readFrame(p.br)
		if err != nil {
			if p.rank != 0 && c.inTeardown() {
				return
			}
			c.fail(fmt.Errorf("transport: rank %d lost rank %d: %w", c.cfg.self, p.rank, err))
			return
		}
		if err := c.dispatch(p, typ, body); err != nil {
			c.fail(err)
			return
		}
	}
}

// inTeardown reports whether this rank has finished its kernel and is only
// waiting on rank 0's stats ack (or is fully done) — the window in which a
// faster peer's hangup is expected, not a failure.
func (c *Comm) inTeardown() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsSent || c.done
}

func (c *Comm) dispatch(p *peer, typ byte, body []byte) error {
	d := wdec{buf: body}
	switch typ {
	case fData:
		from := int(d.u32())
		seq := d.i64()
		tag := int(d.u32())
		arrive := d.f64()
		size := int(d.u32())
		kind := d.u16()
		payload := d.bytes()
		if err := d.finish(); err != nil {
			return fmt.Errorf("transport: bad data frame from rank %d: %w", p.rank, err)
		}
		if from != p.rank {
			return fmt.Errorf("transport: rank %d sent a data frame claiming rank %d", p.rank, from)
		}
		val, err := comm.DecodePayload(kind, payload)
		if err != nil {
			return fmt.Errorf("transport: payload from rank %d: %w", from, err)
		}
		c.mu.Lock()
		if want := c.seqIn[from]; seq != want {
			c.mu.Unlock()
			return fmt.Errorf("transport: rank %d message sequence %d, want %d", from, seq, want)
		}
		c.seqIn[from]++
		c.mu.Unlock()
		c.rank.Deliver(comm.Message{From: from, Tag: tag, Payload: val, Bytes: size, Arrive: arrive})
		return nil

	case fColl:
		gen := d.u64()
		op := d.u8()
		root := int(d.u32())
		from := int(d.u32())
		clock := d.f64()
		size := int(d.u32())
		kind := d.u16()
		payload := d.bytes()
		if err := d.finish(); err != nil {
			return fmt.Errorf("transport: bad collective frame from rank %d: %w", p.rank, err)
		}
		if c.cfg.self != 0 || from != p.rank {
			return fmt.Errorf("transport: unexpected collective deposit from rank %d at rank %d", from, c.cfg.self)
		}
		val, err := comm.DecodePayload(kind, payload)
		if err != nil {
			return fmt.Errorf("transport: collective payload from rank %d: %w", from, err)
		}
		c.mu.Lock()
		if c.collDeposit[from] != nil {
			c.mu.Unlock()
			return fmt.Errorf("transport: rank %d deposited generation %d before %d was consumed", from, gen, c.collDeposit[from].gen)
		}
		c.collDeposit[from] = &collDeposit{gen: gen, op: op, root: root, clock: clock, size: size, val: val}
		c.cond.Broadcast()
		c.mu.Unlock()
		return nil

	case fCollResp:
		gen := d.u64()
		clocks := d.f64s()
		sizes := d.ints()
		nv := int(d.u32())
		vals := make([]any, c.cfg.p)
		for i := 0; i < nv; i++ {
			rk := int(d.u32())
			kind := d.u16()
			payload := d.bytes()
			if d.err != nil || rk < 0 || rk >= c.cfg.p {
				return fmt.Errorf("transport: bad collective response from rank 0: %w", ErrCorrupt)
			}
			val, err := comm.DecodePayload(kind, payload)
			if err != nil {
				return fmt.Errorf("transport: collective response payload: %w", err)
			}
			vals[rk] = val
		}
		if err := d.finish(); err != nil {
			return fmt.Errorf("transport: bad collective response: %w", err)
		}
		if len(clocks) != c.cfg.p || len(sizes) != c.cfg.p {
			return fmt.Errorf("transport: collective response carries %d clocks and %d sizes for %d ranks: %w",
				len(clocks), len(sizes), c.cfg.p, ErrCorrupt)
		}
		if p.rank != 0 || c.cfg.self == 0 {
			return fmt.Errorf("transport: unexpected collective response from rank %d", p.rank)
		}
		c.mu.Lock()
		c.collResp = &comm.Snapshot{Clocks: clocks, Sizes: sizes, Vals: vals}
		c.collRespGen = gen
		c.cond.Broadcast()
		c.mu.Unlock()
		return nil

	case fStats:
		from := int(d.u32())
		st := &remoteStats{ops: d.i64(), clock: d.f64(), wall: d.f64()}
		st.traffic = comm.Traffic{Messages: d.i64(), Bytes: d.i64(), CollMessages: d.i64(), CollBytes: d.i64()}
		if err := d.finish(); err != nil {
			return fmt.Errorf("transport: bad stats frame from rank %d: %w", p.rank, err)
		}
		if c.cfg.self != 0 || from != p.rank {
			return fmt.Errorf("transport: unexpected stats from rank %d at rank %d", from, c.cfg.self)
		}
		c.mu.Lock()
		c.statsIn[from] = st
		c.cond.Broadcast()
		c.mu.Unlock()
		return nil

	case fStatsAck:
		if err := d.finish(); err != nil || p.rank != 0 {
			return fmt.Errorf("transport: unexpected stats ack from rank %d", p.rank)
		}
		c.mu.Lock()
		c.statsAcked = true
		// The ack is the last frame of the run; setting done here — in the
		// reader, before the next readFrame — means the teardown EOF that
		// follows on this stream can never race in as a failure.
		c.done = true
		c.cond.Broadcast()
		c.mu.Unlock()
		return nil

	case fAbort:
		reason := d.str()
		return fmt.Errorf("transport: rank %d aborted the run: %s", p.rank, reason)

	default:
		return fmt.Errorf("transport: unexpected frame type %d from rank %d", typ, p.rank)
	}
}

// ----------------------------------------------------------------- peers

// peer is one rank-to-rank connection: an unbounded outbound frame queue
// drained by a writer goroutine (so Post never blocks) plus the buffered
// reader its readLoop consumes.
type peer struct {
	rank int
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []outFrame
	writing bool // the writer holds a dequeued frame it has not finished writing
	closed  bool
}

type outFrame struct {
	typ  byte
	body []byte
}

func newPeer(rank int, conn net.Conn, br *bufio.Reader) *peer {
	p := &peer{rank: rank, conn: conn, br: br, bw: bufio.NewWriter(conn)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// enqueue posts a frame for the writer goroutine; it never blocks.
// Returns false when the connection is already closed.
func (p *peer) enqueue(typ byte, body []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.queue = append(p.queue, outFrame{typ: typ, body: body})
	p.cond.Signal()
	return true
}

// writeLoop drains the queue. Each frame write carries a deadline, so a
// stalled peer cannot wedge the writer forever; write failures are left
// for the read side to surface (the reader sees the broken connection).
func (p *peer) writeLoop() {
	for {
		p.mu.Lock()
		p.writing = false
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 { // closed and drained
			p.mu.Unlock()
			p.conn.Close()
			return
		}
		f := p.queue[0]
		p.queue[0] = outFrame{}
		p.queue = p.queue[1:]
		if len(p.queue) == 0 {
			p.queue = nil
		}
		p.writing = true
		p.mu.Unlock()
		p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := writeFrame(p.bw, f.typ, f.body); err != nil {
			p.conn.Close() // the reader will observe and report the failure
			p.drain()
			return
		}
	}
}

// drain discards the remaining queue and marks the peer closed.
func (p *peer) drain() {
	p.mu.Lock()
	p.closed = true
	p.queue = nil
	p.cond.Broadcast()
	p.mu.Unlock()
}

// close marks the peer closed; the writer flushes what is queued, then
// closes the connection (unblocking the reader).
func (p *peer) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	// An idle writer is mid-wait; closing here unblocks the reader
	// immediately. A busy writer finishes its frame (the stats ack may be
	// the one in flight) and closes once the queue is drained.
	idle := len(p.queue) == 0 && !p.writing
	p.mu.Unlock()
	if idle {
		p.conn.Close()
	}
}
