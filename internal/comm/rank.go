package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Traffic is the communication one rank booked: the point-to-point
// messages and payload bytes it sent, and its share of the collectives'
// modeled charge.
type Traffic struct {
	Messages, Bytes         int64
	CollMessages, CollBytes int64
}

// Add accumulates u into t.
func (t *Traffic) Add(u Traffic) {
	t.Messages += u.Messages
	t.Bytes += u.Bytes
	t.CollMessages += u.CollMessages
	t.CollBytes += u.CollBytes
}

// Rank is one processor's handle inside Comm.Run. The kernel methods
// (everything but Deliver and Interrupt) must be called only from the
// goroutine the handle was passed to — SPMD discipline: the same kernel
// closure runs on every rank.
//
// Deadlock freedom: a send never blocks (the per-source inbox queues are
// unbounded), so any run in which every receive is eventually matched by
// a send terminates.
//
// Determinism: virtual time, not wall time, decides delivery order, and
// the clock only moves through the CostModel *Advance helpers, so results,
// clocks and traffic counters are identical across runs, GOMAXPROCS
// settings and backends.
type Rank struct {
	id, p int
	model CostModel
	link  Link

	ops     int64
	clock   float64
	traffic Traffic

	// Inbox: unbounded per-source FIFO queues. The condition variable is
	// the progress engine — Deliver appends and broadcasts; receivers
	// sleep until the queues they wait on satisfy the delivery rule.
	mu      sync.Mutex
	cond    *sync.Cond
	q       [][]Message // q[from]
	aborted atomic.Bool
}

// NewRank creates rank id of a p-rank communicator whose virtual clock
// advances under model and whose outbound traffic goes through link.
func NewRank(id, p int, model CostModel, link Link) *Rank {
	r := &Rank{id: id, p: p, model: model, link: link, q: make([][]Message, p)}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// ID returns this rank's index in [0, P).
func (r *Rank) ID() int { return r.id }

// P returns the communicator size.
func (r *Rank) P() int { return r.p }

// Ops returns the operations charged so far via Compute.
func (r *Rank) Ops() int64 { return r.ops }

// Clock returns the rank's virtual time in modeled seconds.
func (r *Rank) Clock() float64 { return r.clock }

// Traffic returns the communication the rank has booked so far.
func (r *Rank) Traffic() Traffic { return r.traffic }

// Compute charges n elementary operations of local work, advancing the
// virtual clock by n·SecondsPerOp.
func (r *Rank) Compute(n int64) {
	r.ops += n
	r.clock += float64(n) * r.model.SecondsPerOp
}

// Run executes fn on this rank and reports whether it unwound with
// AbortSignal; any other panic propagates.
func (r *Rank) Run(fn func(*Rank)) (aborted bool) {
	defer func() {
		if e := recover(); e != nil {
			if _, ok := e.(AbortSignal); !ok {
				panic(e)
			}
			aborted = true
		}
	}()
	fn(r)
	return false
}

// Abort unwinds the calling rank goroutine with AbortSignal; Rank.Run
// recovers it. Rank compute loops call this when they observe a cancelled
// context, so a cancelled run terminates promptly even between blocking
// primitives.
func (r *Rank) Abort() { panic(AbortSignal{}) }

// Interrupt marks the rank aborted and wakes it out of any blocking
// receive; its next primitive unwinds. Backends call it when the run is
// aborted. Safe to call from any goroutine, more than once.
func (r *Rank) Interrupt() {
	r.aborted.Store(true)
	r.mu.Lock()
	r.cond.Broadcast()
	r.mu.Unlock()
}

// Deliver appends an inbound message to the queue of its sender (m.From).
// Backends call it from any goroutine, in per-source FIFO order.
func (r *Rank) Deliver(m Message) {
	r.mu.Lock()
	r.q[m.From] = append(r.q[m.From], m)
	r.cond.Broadcast()
	r.mu.Unlock()
}

// unwindIfAborted unwinds the rank once the run has been interrupted.
func (r *Rank) unwindIfAborted() {
	if r.aborted.Load() {
		panic(AbortSignal{})
	}
}

// unwindOn unwinds the rank when a Link call failed; the backend has
// already recorded the failure.
func unwindOn(err error) {
	if err != nil {
		panic(AbortSignal{})
	}
}

// waitLocked sleeps until the next Deliver or Interrupt, unwinding (with
// mu released) if the run is aborted. Caller holds mu.
func (r *Rank) waitLocked() {
	if r.aborted.Load() {
		r.mu.Unlock()
		panic(AbortSignal{})
	}
	r.cond.Wait()
}

// popLocked removes the head of q[from], releases mu, and advances the
// clock to the message's arrival (if not already past it) plus the
// per-message overhead. Caller holds mu.
func (r *Rank) popLocked(from int) Message {
	msg := r.q[from][0]
	r.q[from][0] = Message{} // release the payload
	r.q[from] = r.q[from][1:]
	if len(r.q[from]) == 0 {
		r.q[from] = nil // let the grown backing array go
	}
	r.mu.Unlock()
	r.clock = r.model.RecvAdvance(r.clock, msg.Arrive)
	return msg
}

// Send posts a message to rank `to`. It never blocks, so no send/receive
// ordering can deadlock a run. The sender's clock pays the per-message
// overhead; the message is stamped with its modeled arrival time (send
// time + latency + bytes/bandwidth).
func (r *Rank) Send(to, tag int, payload any, size int) {
	if to == r.id || to < 0 || to >= r.p {
		panic(fmt.Sprintf("comm: rank %d sending to %d", r.id, to))
	}
	r.unwindIfAborted()
	var arrive float64
	r.clock, arrive = r.model.SendAdvance(r.clock, size)
	r.traffic.Messages++
	r.traffic.Bytes += int64(size)
	unwindOn(r.link.Post(to, Message{From: r.id, Tag: tag, Payload: payload, Bytes: size, Arrive: arrive}))
}

// Recv blocks until a message from rank `from` is pending and returns the
// oldest one, advancing the clock to the message's arrival (if not
// already past it) plus the per-message overhead.
func (r *Rank) Recv(from int) Message {
	r.mu.Lock()
	for len(r.q[from]) == 0 {
		r.waitLocked()
	}
	return r.popLocked(from)
}

// AnyRecv receives from any of the given sources: it returns the pending
// message with the smallest modeled arrival time (the lower sender rank
// breaks ties). To keep delivery deterministic it waits until every
// listed source has at least one pending message — only then is the
// earliest virtual arrival decidable. Callers drop a source from the set
// once its end-of-stream message arrives.
func (r *Rank) AnyRecv(sources []int) Message {
	if len(sources) == 0 {
		panic("comm: AnyRecv with no sources")
	}
	r.mu.Lock()
	for !r.allPendingLocked(sources) {
		r.waitLocked()
	}
	best := sources[0]
	for _, s := range sources[1:] {
		h, b := r.q[s][0], r.q[best][0]
		if h.Arrive < b.Arrive || (h.Arrive == b.Arrive && s < best) {
			best = s
		}
	}
	return r.popLocked(best)
}

// allPendingLocked reports whether every source has a queued message.
func (r *Rank) allPendingLocked(sources []int) bool {
	for _, s := range sources {
		if len(r.q[s]) == 0 {
			return false
		}
	}
	return true
}

// Sendrecv posts the send (never blocking) and then receives from `from` —
// the classic exchange primitive that is deadlock-safe even when every
// rank calls it simultaneously toward every other.
func (r *Rank) Sendrecv(to, tag int, payload any, size int, from int) Message {
	r.Send(to, tag, payload, size)
	return r.Recv(from)
}

// ------------------------------------------------------------- collectives

// exchange runs one collective generation through the link. A one-rank
// communicator needs no link: the snapshot is the caller's own deposit.
func (r *Rank) exchange(op, root int, val any, size int) Snapshot {
	if r.p == 1 {
		return Snapshot{Clocks: []float64{r.clock}, Sizes: []int{size}, Vals: []any{val}}
	}
	r.unwindIfAborted()
	snap, err := r.link.Exchange(op, root, val, size, r.clock)
	unwindOn(err)
	return snap
}

// bookColl adds a collective's modeled traffic charge.
func (r *Rank) bookColl(msgs, bytes int64) {
	r.traffic.CollMessages += msgs
	r.traffic.CollBytes += bytes
}

// Barrier blocks until all P ranks have called it; every clock advances
// to the latest arrival plus a dissemination round of log2(P) latencies.
func (r *Rank) Barrier() {
	snap := r.exchange(OpBarrier, 0, nil, 0)
	r.clock = r.model.BarrierAdvance(r.p, r.clock, snap.Clocks)
}

// Bcast broadcasts root's payload to every rank (each caller passes its
// own payload; only root's is delivered) and returns it. Modeled as a
// binomial tree: non-root ranks advance to root's send time plus log2(P)
// hops of latency, overhead and transfer.
func (r *Rank) Bcast(root int, payload any, size int) any {
	snap := r.exchange(OpBcast, root, payload, size)
	var msgs, bytes int64
	r.clock, msgs, bytes = r.model.BcastAdvance(r.p, r.id, root, r.clock, snap.Clocks[root], snap.Sizes[root])
	r.bookColl(msgs, bytes)
	return snap.Vals[root]
}

// Gatherv gathers every rank's (variable-size) payload to root. At root
// the returned slice holds rank i's payload at index i; every other rank
// gets nil. Modeled as a binomial gather tree: root's clock advances to
// the latest contributor plus log2(P) latency hops and the serialized
// transfer of all non-root bytes; contributors just pay their send
// overhead.
func (r *Rank) Gatherv(root int, payload any, size int) []any {
	snap := r.exchange(OpGatherv, root, payload, size)
	if r.p == 1 {
		return snap.Vals
	}
	var msgs, bytes int64
	r.clock, msgs, bytes = r.model.GathervAdvance(r.p, r.id, root, r.clock, snap.Clocks, snap.Sizes)
	r.bookColl(msgs, bytes)
	if r.id != root {
		return nil
	}
	return append([]any(nil), snap.Vals...)
}

// Allreduce combines every rank's contribution with op and returns the
// result on all ranks. The fold runs in rank order on each rank, so the
// result is bitwise identical everywhere regardless of scheduling.
// Modeled as a butterfly: log2(P) rounds of latency, two overheads and
// one word.
func (r *Rank) Allreduce(v float64, op ReduceOp) float64 {
	snap := r.exchange(OpAllreduce, 0, v, 8)
	vals := make([]float64, r.p)
	for i, x := range snap.Vals {
		vals[i] = x.(float64)
	}
	out := Reduce(op, vals)
	var msgs, bytes int64
	r.clock, msgs, bytes = r.model.AllreduceAdvance(r.p, r.id, r.clock, snap.Clocks)
	r.bookColl(msgs, bytes)
	return out
}
