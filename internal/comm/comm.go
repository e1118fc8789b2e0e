// Package comm is the rank engine the parallel samplers run against. A
// Comm hosts P ranks; each is driven through the one concrete *Rank type
// defined here, which offers nonblocking point-to-point sends,
// deterministic receives (AnyRecv delivers by modeled arrival stamp, the
// lower sender rank breaking ties), the four collectives the kernels use
// (Barrier, Bcast, Gatherv, Allreduce), abort unwinding, and
// byte/message accounting.
//
// The engine owns everything that decides what a run computes: the
// per-source inbox queues and the AnyRecv rule, the operation counter and
// the virtual clock (advanced only through the CostModel *Advance
// helpers), and the traffic counters. A backend supplies only a Link —
// how a posted message reaches its destination rank and how one
// collective generation is exchanged — and feeds inbound messages back
// through Rank.Deliver. Two backends exist: internal/mpisim links all P
// ranks in one process (the Figure-10 simulation), and internal/transport
// links one local rank to the rest over TCP. Because both run this same
// engine, a sampler produces byte-identical edge sets, identical per-rank
// clocks and identical traffic counters on either — the determinism
// contract the differential tests in internal/transport pin.
package comm

import "context"

// Message is a tagged payload between ranks.
type Message struct {
	From    int
	Tag     int
	Payload any
	Bytes   int     // accounted payload size
	Arrive  float64 // modeled arrival time at the receiver (seconds)
}

// ReduceOp selects the Allreduce combiner.
type ReduceOp int

const (
	// ReduceSum adds contributions.
	ReduceSum ReduceOp = iota
	// ReduceMax keeps the maximum contribution.
	ReduceMax
	// ReduceMin keeps the minimum contribution.
	ReduceMin
)

// Collective operations, as passed to Link.Exchange. The values are part
// of the TCP wire format (the op byte of a collective deposit).
const (
	OpBarrier = iota
	OpBcast
	OpGatherv
	OpAllreduce
)

// AbortSignal is the sentinel a rank goroutine unwinds with when its run is
// aborted. The engine panics with it from blocking primitives (and from
// Rank.Abort); Rank.Run recovers it, and only it.
type AbortSignal struct{}

// Snapshot is one completed collective generation: every rank's deposit
// clock and size, and the deposited values the calling rank's op needs
// (root's value for Bcast, every value for Allreduce and at the Gatherv
// root; the caller's own value is always present).
type Snapshot struct {
	Clocks []float64
	Sizes  []int
	Vals   []any
}

// Link is a backend's transport for one rank. The engine calls it only
// from the rank's goroutine.
type Link interface {
	// Post hands m to rank `to` without blocking; the backend must make it
	// reach that rank's Deliver in per-source FIFO order. An error (the
	// backend has already recorded it as the run's failure) unwinds the
	// rank.
	Post(to int, m Message) error
	// Exchange deposits (val, size, clock) for one collective generation
	// and blocks until every rank of the communicator has deposited. All
	// ranks call it in the same sequence (SPMD), so op and root match. An
	// error — an aborted run or a transport failure — unwinds the rank.
	Exchange(op, root int, val any, size int, clock float64) (Snapshot, error)
}

// Comm is a communicator over P ranks. A simulated communicator hosts all
// P ranks in-process; a transport communicator hosts exactly one local
// rank and reaches the rest over the wire — either way Run drives every
// locally-hosted rank and returns once they have finished or unwound.
type Comm interface {
	// P returns the number of ranks.
	P() int
	// Run executes fn on every locally-hosted rank and waits for
	// completion. An aborted run still returns once every local rank has
	// finished or unwound; the error reports transport or abort causes
	// (simulated runs return nil and leave cancellation to the caller's
	// context check).
	Run(fn func(r *Rank)) error
	// Abort marks the run as aborted and wakes every local rank blocked in
	// a receive or collective. Safe to call from any goroutine, repeatedly.
	Abort()
	// Aborted reports whether Abort has been called.
	Aborted() bool
	// AbortOnCancel aborts the communicator when ctx is cancelled. The
	// returned stop function releases the watcher; call it (typically via
	// defer) after Run returns.
	AbortOnCancel(ctx context.Context) (stop func())

	// Messages returns the total point-to-point messages sent (local ranks).
	Messages() int64
	// Bytes returns the total point-to-point payload bytes sent.
	Bytes() int64
	// CollMessages returns the modeled message count of the collectives.
	CollMessages() int64
	// CollBytes returns the modeled payload bytes moved by the collectives.
	CollBytes() int64
	// FillStats copies the run's accounting into s: per-rank operation
	// counts, virtual clocks and wall clocks, point-to-point traffic, and
	// collective traffic. Complete only on a simulated communicator or on
	// the distributed rank that gathers remote stats (rank 0).
	FillStats(s *RunStats)
}
