package transport

import (
	"fmt"

	"parsample/internal/comm"
)

// The comm.Link side of Comm: the local rank's engine posts messages and
// runs collectives through these methods, always from the rank goroutine.
var _ comm.Link = (*Comm)(nil)

// send posts one frame for the rank; a transport failure fails the run
// and is returned so the engine unwinds (kernels never see a half-sent
// state).
func (c *Comm) send(to int, typ byte, body []byte) error {
	err := c.post(to, typ, body)
	if err != nil {
		c.fail(err)
	}
	return err
}

// encode serializes a payload through the comm codec registry; an
// unregistered payload type is a programming error and fails the run.
func (c *Comm) encode(payload any) (kind uint16, data []byte, err error) {
	kind, data, err = comm.EncodePayload(payload)
	if err != nil {
		err = fmt.Errorf("transport: rank %d: %w", c.cfg.self, err)
		c.fail(err)
	}
	return kind, data, err
}

// Post frames m as an fData carrying the next sequence number for `to`
// and queues it on that peer's writer; it never blocks.
func (c *Comm) Post(to int, m comm.Message) error {
	kind, data, err := c.encode(m.Payload)
	if err != nil {
		return err
	}
	var e wenc
	e.u32(uint32(m.From))
	e.i64(c.seqOut[to])
	c.seqOut[to]++
	e.u32(uint32(m.Tag))
	e.f64(m.Arrive)
	e.u32(uint32(m.Bytes))
	e.u16(kind)
	e.bytes(data)
	return c.send(to, fData, e.buf)
}

// Exchange runs one generation of the star protocol and returns the
// assembled snapshot. Ranks call collectives in lockstep (SPMD), so the
// generation counter alone identifies the exchange; rank 0 is the hub —
// it collects the P-1 deposits, assembles the snapshot, and replies to
// each peer with exactly the values that peer's op delivers there.
func (c *Comm) Exchange(op, root int, val any, size int, clock float64) (comm.Snapshot, error) {
	gen := c.gen
	c.gen++
	var snap comm.Snapshot
	var err error
	if c.cfg.self == 0 {
		snap, err = c.hub(gen, op, root, val, size, clock)
	} else {
		snap, err = c.deposit(gen, op, root, val, size, clock)
	}
	if err == nil && op == comm.OpAllreduce {
		// The engine folds Allreduce contributions as float64.
		for i, x := range snap.Vals {
			if _, ok := x.(float64); !ok {
				err = fmt.Errorf("transport: rank %d Allreduce contribution is %T, want float64", i, x)
				c.fail(err)
				break
			}
		}
	}
	return snap, err
}

// deposit ships a non-zero rank's contribution to the hub and waits for
// the hub's snapshot of the same generation.
func (c *Comm) deposit(gen uint64, op, root int, val any, size int, clock float64) (comm.Snapshot, error) {
	kind, data, err := c.encode(val)
	if err != nil {
		return comm.Snapshot{}, err
	}
	var e wenc
	e.u64(gen)
	e.u8(byte(op))
	e.u32(uint32(root))
	e.u32(uint32(c.cfg.self))
	e.f64(clock)
	e.u32(uint32(size))
	e.u16(kind)
	e.bytes(data)
	if err := c.send(0, fColl, e.buf); err != nil {
		return comm.Snapshot{}, err
	}
	c.mu.Lock()
	for c.collResp == nil || c.collRespGen != gen {
		if c.aborted {
			c.mu.Unlock()
			return comm.Snapshot{}, errAborted
		}
		c.cond.Wait()
	}
	snap := *c.collResp
	c.collResp = nil
	c.mu.Unlock()
	// The hub's response carries the full clock/size vectors but only the
	// payload values this rank's op needs; splice the local value in so
	// Vals[self] is always populated.
	if snap.Vals[c.cfg.self] == nil {
		snap.Vals[c.cfg.self] = val
	}
	return snap, nil
}

// hub is rank 0's side of a generation: wait for every peer's deposit,
// assemble the snapshot, and answer each peer.
func (c *Comm) hub(gen uint64, op, root int, val any, size int, clock float64) (comm.Snapshot, error) {
	p := c.cfg.p
	c.mu.Lock()
	for !c.allDepositedLocked() {
		if c.aborted {
			c.mu.Unlock()
			return comm.Snapshot{}, errAborted
		}
		c.cond.Wait()
	}
	snap := comm.Snapshot{
		Clocks: make([]float64, p),
		Sizes:  make([]int, p),
		Vals:   make([]any, p),
	}
	snap.Clocks[0], snap.Sizes[0], snap.Vals[0] = clock, size, val
	var mismatch error
	for peer := 1; peer < p; peer++ {
		dep := c.collDeposit[peer]
		c.collDeposit[peer] = nil
		if dep.gen != gen || dep.op != byte(op) || dep.root != root {
			mismatch = fmt.Errorf("transport: collective mismatch: rank %d deposited gen %d op %d root %d, rank 0 is at gen %d op %d root %d",
				peer, dep.gen, dep.op, dep.root, gen, op, root)
			continue
		}
		snap.Clocks[peer] = dep.clock
		snap.Sizes[peer] = dep.size
		snap.Vals[peer] = dep.val
	}
	c.mu.Unlock()
	if mismatch != nil {
		c.fail(mismatch)
		return comm.Snapshot{}, mismatch
	}
	for peer := 1; peer < p; peer++ {
		body, err := c.encodeCollResp(gen, op, root, peer, snap)
		if err == nil {
			err = c.send(peer, fCollResp, body)
		}
		if err != nil {
			return comm.Snapshot{}, err
		}
	}
	return snap, nil
}

// allDepositedLocked reports whether every peer's deposit is in; caller
// holds mu.
func (c *Comm) allDepositedLocked() bool {
	for peer := 1; peer < c.cfg.p; peer++ {
		if c.collDeposit[peer] == nil {
			return false
		}
	}
	return true
}

// encodeCollResp builds the fCollResp body for one peer: the full clock
// and size vectors plus only the payload values the peer's op delivers
// there — nothing for Barrier, root's value for Bcast, every value for
// Allreduce and for the Gatherv root.
func (c *Comm) encodeCollResp(gen uint64, op, root, peer int, snap comm.Snapshot) ([]byte, error) {
	var need []int
	switch {
	case op == comm.OpBcast:
		need = []int{root}
	case op == comm.OpAllreduce, op == comm.OpGatherv && peer == root:
		need = make([]int, len(snap.Vals))
		for i := range need {
			need[i] = i
		}
	}
	var e wenc
	e.u64(gen)
	e.f64s(snap.Clocks)
	e.ints(snap.Sizes)
	e.u32(uint32(len(need)))
	for _, rk := range need {
		kind, data, err := c.encode(snap.Vals[rk])
		if err != nil {
			return nil, err
		}
		e.u32(uint32(rk))
		e.u16(kind)
		e.bytes(data)
	}
	return e.buf, nil
}
