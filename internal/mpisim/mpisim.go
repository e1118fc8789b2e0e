// Package mpisim is the in-process backend of the comm rank engine. The
// paper ran on the Firefly MPI cluster with 1–64 processors; here all P
// ranks are goroutines in one process, each driven through a *comm.Rank
// whose Link posts straight into the destination rank's inbox and runs
// collectives through a generation-counted rendezvous area. The engine's
// virtual clocks give, after a run, the critical path (max over ranks of
// compute plus waited-on communication) that CostModel.Time reports for
// the Figure 10 scalability study; this package adds only the wall-timed
// Run and the stats it fills.
package mpisim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parsample/internal/comm"
)

// errAborted fails a collective the run was aborted under.
var errAborted = errors.New("mpisim: run aborted")

// Comm is a communicator over P simulated ranks.
type Comm struct {
	p     int
	ranks []*comm.Rank
	walls []float64 // measured wall seconds each rank goroutine spent in Run
	coll  *collective

	aborted atomic.Bool
	wall    float64 // measured wall seconds of the last Run
}

var _ comm.Comm = (*Comm)(nil)

// NewComm creates a communicator for p ranks using comm.DefaultCostModel
// for the virtual clocks.
func NewComm(p int) *Comm { return NewCommModel(p, comm.DefaultCostModel()) }

// NewCommModel creates a communicator for p ranks whose virtual clocks
// advance under the given cost model.
func NewCommModel(p int, m comm.CostModel) *Comm {
	if p < 1 {
		panic(fmt.Sprintf("mpisim: p = %d", p))
	}
	c := &Comm{p: p, ranks: make([]*comm.Rank, p), walls: make([]float64, p), coll: newCollective(p)}
	for r := range c.ranks {
		c.ranks[r] = comm.NewRank(r, p, m, link{c: c, id: r})
	}
	return c
}

// P returns the number of ranks.
func (c *Comm) P() int { return c.p }

// traffic sums the traffic every rank booked.
func (c *Comm) traffic() comm.Traffic {
	var t comm.Traffic
	for _, r := range c.ranks {
		t.Add(r.Traffic())
	}
	return t
}

// Messages returns the total number of point-to-point messages sent.
func (c *Comm) Messages() int64 { return c.traffic().Messages }

// Bytes returns the total point-to-point payload bytes sent.
func (c *Comm) Bytes() int64 { return c.traffic().Bytes }

// CollMessages returns the modeled message count of the collectives.
func (c *Comm) CollMessages() int64 { return c.traffic().CollMessages }

// CollBytes returns the modeled payload bytes moved by the collectives.
func (c *Comm) CollBytes() int64 { return c.traffic().CollBytes }

// Run launches fn on every rank concurrently and waits for completion.
// It always returns nil: simulated runs have no transport failures, and
// cancellation is reported by the caller's own context check.
//
// A rank may abort mid-run (Rank.Abort, or any blocking primitive after
// Comm.Abort): its goroutine unwinds via the comm.AbortSignal sentinel
// that Rank.Run recovers, so an aborted run still returns once every rank
// has either finished or unwound — no goroutine outlives Run.
func (c *Comm) Run(fn func(r *comm.Rank)) error {
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(c.p)
	for i, rk := range c.ranks {
		go func() {
			defer wg.Done()
			rankStart := time.Now()
			rk.Run(fn)
			c.walls[i] = time.Since(rankStart).Seconds()
		}()
	}
	wg.Wait()
	c.wall = time.Since(start).Seconds()
	return nil
}

// Aborted reports whether Abort has been called on the communicator.
func (c *Comm) Aborted() bool { return c.aborted.Load() }

// Abort marks the run as aborted and wakes every rank blocked in a receive
// or collective; woken ranks unwind out of Comm.Run. Compute loops that
// poll a context must abort themselves via Rank.Abort. Safe to call from
// any goroutine, more than once.
func (c *Comm) Abort() {
	c.aborted.Store(true)
	for _, r := range c.ranks {
		r.Interrupt()
	}
	c.coll.mu.Lock()
	c.coll.cond.Broadcast()
	c.coll.mu.Unlock()
}

// AbortOnCancel aborts the communicator when ctx is cancelled. The returned
// stop function releases the watcher; call it (typically via defer) after
// Run returns.
func (c *Comm) AbortOnCancel(ctx context.Context) (stop func()) {
	release := context.AfterFunc(ctx, c.Abort)
	return func() { release() }
}

// FillStats copies the run's accounting into s: per-rank operation counts,
// virtual clocks and measured wall clocks, point-to-point traffic, and
// collective traffic. The wall fields of a simulated run are goroutine
// scheduling time, not a measurement, so Measured stays false.
func (c *Comm) FillStats(s *comm.RunStats) {
	s.ResetRanks(c.p)
	for i, r := range c.ranks {
		s.AddRank(i, r.Ops(), r.Clock(), c.walls[i], r.Traffic())
	}
	s.WallSeconds = c.wall
	s.Measured = false
}

// link is rank id's comm.Link: posts land directly in the destination
// rank's inbox, and collectives meet in the shared rendezvous area.
type link struct {
	c  *Comm
	id int
}

func (l link) Post(to int, m comm.Message) error {
	l.c.ranks[to].Deliver(m)
	return nil
}

func (l link) Exchange(_, _ int, val any, size int, clock float64) (comm.Snapshot, error) {
	return l.c.coll.exchange(l.c, l.id, val, size, clock)
}

// collective is the generation-counted rendezvous area behind the
// collectives: every rank deposits (value, size, clock); the last arriver
// snapshots the generation's vectors, resets the area and wakes the rest.
type collective struct {
	mu     sync.Mutex
	cond   *sync.Cond
	gen    uint64
	count  int
	vals   []any
	sizes  []int
	clocks []float64
	result comm.Snapshot
}

func newCollective(p int) *collective {
	cl := &collective{
		vals:   make([]any, p),
		sizes:  make([]int, p),
		clocks: make([]float64, p),
	}
	cl.cond = sync.NewCond(&cl.mu)
	return cl
}

// exchange performs an all-gather of (val, size, clock) with barrier
// semantics and returns the completed generation's snapshot, shared by
// every rank (read-only).
func (cl *collective) exchange(c *Comm, id int, val any, size int, clock float64) (comm.Snapshot, error) {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	cl.vals[id] = val
	cl.sizes[id] = size
	cl.clocks[id] = clock
	cl.count++
	gen := cl.gen
	if cl.count == len(cl.vals) {
		cl.result = comm.Snapshot{
			Vals:   append([]any(nil), cl.vals...),
			Sizes:  append([]int(nil), cl.sizes...),
			Clocks: append([]float64(nil), cl.clocks...),
		}
		cl.count = 0
		cl.gen++
		clear(cl.vals)
		cl.cond.Broadcast()
		return cl.result, nil
	}
	for gen == cl.gen {
		if c.aborted.Load() {
			return comm.Snapshot{}, errAborted
		}
		cl.cond.Wait()
	}
	return cl.result, nil
}
