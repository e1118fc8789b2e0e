package transport

import (
	"errors"
	"testing"

	"parsample/internal/comm"
)

// TestShortCollectiveResponseRejected: a CRC-valid collective response
// whose clock and size vectors are shorter than P must fail the run with
// ErrCorrupt. Accepting it would let Bcast index past the vectors and
// crash the rank goroutine, which Run does not recover.
func TestShortCollectiveResponseRejected(t *testing.T) {
	comms := makeMesh(t, 2, comm.DefaultCostModel())
	var e wenc
	e.u64(0)             // generation
	e.f64s([]float64{0}) // one clock for two ranks
	e.ints([]int{0})     // one size for two ranks
	e.u32(0)             // no payload values
	if err := comms[0].post(1, fCollResp, e.buf); err != nil {
		t.Fatal(err)
	}
	err := comms[1].Run(func(r *comm.Rank) { r.Bcast(1, "x", 1) })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// fuzzP is the communicator size of the seats FuzzDispatch drives.
const fuzzP = 4

// FuzzDispatch feeds an arbitrary inbound frame to a P=4 seat at rank 0
// (as if sent by rank 1) and at rank 1 (as if sent by rank 0). dispatch
// must never panic, must report every rejection as a returned error, and
// may only accept a collective snapshot whose vectors cover every rank.
func FuzzDispatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		for _, seat := range []struct{ self, from int }{{0, 1}, {1, 0}} {
			c := newSeat(meshConfig{self: seat.self, p: fuzzP, model: comm.DefaultCostModel()})
			if err := c.dispatch(&peer{rank: seat.from}, typ, body); err != nil || typ != fCollResp {
				continue
			}
			s := c.collResp
			if len(s.Clocks) != fuzzP || len(s.Sizes) != fuzzP || len(s.Vals) != fuzzP {
				t.Fatalf("rank %d accepted a snapshot with %d clocks, %d sizes, %d values",
					seat.self, len(s.Clocks), len(s.Sizes), len(s.Vals))
			}
		}
	})
}
