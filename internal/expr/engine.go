package expr

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"parsample/internal/faultinject"
	"parsample/internal/graph"
)

// This file is the all-pairs correlation engine behind BuildNetwork,
// ThresholdSweep and the batched multi-spec sweeps (batch.go). Four
// transformations take the per-pair cost from "two-pass Pearson plus an
// incomplete-beta p-value" down to a fraction of a SIMD dot product:
//
//  1. Standardization. Every gene row is shifted to zero mean and scaled to
//     unit L2 norm once, into a pooled flat row-major arena (arena.go). The
//     Pearson correlation of any two genes is then exactly the dot product
//     of their standardized rows; Spearman is the same dot product after
//     replacing each row by its average-tied ranks before standardizing.
//  2. Threshold inversion. PValue(r, n) is monotone non-increasing in |r|,
//     so the per-build pair test "p ≤ MaxP" is equivalent to "|r| ≥ r*"
//     where r* is the smallest |r| whose p-value clears MaxP. r* is found
//     once by bisection to adjacent float64s (criticalR); the continued
//     fraction betacf never runs inside the pair loop.
//  3. Tiling. The triangular pair sweep is blocked into square row tiles
//     sized so two tiles of standardized rows sit in L1/L2. Workers claim
//     tile pairs from an atomic counter, so load balancing is dynamic (the
//     triangle makes static striding uneven) and each claimed tile's rows
//     stay hot across its inner loop.
//  4. Register blocking with banded candidate filtering. Inside a tile
//     pair, one row is correlated against four partner rows per inner loop
//     (kernel.go: AVX2+FMA when the CPU has it, a portable 1×4 kernel
//     otherwise), and the block result is used only to REJECT pairs that
//     sit below every admission threshold minus a sound error band. The
//     rare survivors — plus ragged block tails — are decided by the
//     canonical scalar dot over the float64 arena, so the admitted edge
//     set and every reported coefficient are bit-identical whatever the
//     kernel ISA or arena width (the float32 arena halves bandwidth and
//     doubles lanes, then rechecks through the same canonical kernel).
//
// The engine applies the naive per-pair admission rule exactly (see
// TestBuildNetworkMatchesReference); only the arithmetic order inside one
// canonical correlation differs, at ulp scale, so the edge set can deviate
// solely for a pair whose coefficient lands within an ulp of the threshold.

// ScoredEdge is a retained gene pair with its correlation coefficient.
type ScoredEdge struct {
	U, V int32 // gene ids, U < V
	R    float64
}

// CorrelatedPairs computes the selected correlation for every gene pair and
// returns the pairs passing the option thresholds, sorted by (U, V) with
// U < V. The result is deterministic and independent of Workers. This is
// the primitive under BuildNetwork; callers that need the coefficients
// (threshold sweeps, edge weighting) use it directly instead of re-running
// per-pair correlations.
func CorrelatedPairs(m *Matrix, opts NetworkOptions) []ScoredEdge {
	out := scoredPairs(m, opts)
	sortEdges(out)
	return out
}

// sortEdges orders edges by (U, V), the canonical output order.
func sortEdges(out []ScoredEdge) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
}

// scoredPairs is CorrelatedPairs without the (U, V) sort — the engine sweep
// itself, for callers that canonicalize anyway (BuildNetwork's Builder
// counting-sorts, ThresholdSweep buckets into Builders).
func scoredPairs(m *Matrix, opts NetworkOptions) []ScoredEdge {
	out, _ := scoredPairsContext(context.Background(), m, opts)
	return out
}

// scoredPairsContext is the cancellable engine sweep for a single
// admission rule: the one-spec case of the batched sweep.
func scoredPairsContext(ctx context.Context, m *Matrix, opts NetworkOptions) ([]ScoredEdge, error) {
	outs, err := batchScoredContext(ctx, m, opts, []SweepSpec{opts.SweepSpec()})
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// batchScoredContext runs ONE standardize+sweep pass over m evaluating
// every admission spec, returning unsorted admitted pairs per spec. base
// supplies statistic and workers; workers poll ctx at every tile-pair
// claim (a claim is ~ms of dot products, so cancellation lands promptly)
// and row standardization polls between rows. On cancellation the partial
// result is discarded and ctx.Err() returned.
func batchScoredContext(ctx context.Context, m *Matrix, base NetworkOptions, specs []SweepSpec) ([][]ScoredEdge, error) {
	return batchScoredArena(ctx, m, base, specs, sweepArena(m.Samples))
}

// batchScoredArena is batchScoredContext in the given arena width. Only
// the engine's rule (sweepArena) picks the width outside tests, which
// force each width through here to pin that both give one edge set.
func batchScoredArena(ctx context.Context, m *Matrix, base NetworkOptions, specs []SweepSpec, w arenaWidth) ([][]ScoredEdge, error) {
	base = base.withDefaults()
	if len(specs) == 0 {
		return nil, nil
	}
	ar := arenaFor(m.Genes, m.Samples, w)
	defer ar.release()
	if err := standardizeInto(ctx, ar.z64, m, base.Kind); err != nil {
		return nil, err
	}
	if w == arena32 {
		// Chunked conversion with a poll every 256 rows: on the 32k-gene cap
		// this loop touches 2²⁵ floats, long enough that a cancelled run
		// must not have to sit through it (same cadence standardizeInto
		// uses).
		chunk := 256 * m.Samples
		if chunk <= 0 {
			chunk = len(ar.z64)
		}
		for off := 0; off < len(ar.z64); off += chunk {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			end := off + chunk
			if end > len(ar.z64) {
				end = len(ar.z64)
			}
			for i := off; i < end; i++ {
				ar.z32[i] = float32(ar.z64[i])
			}
		}
	}
	e := &engine{
		genes:   m.Genes,
		samples: m.Samples,
		z64:     ar.z64,
		z32:     ar.z32,
		width:   w,
		tile:    tileRows(m.Samples, w),
		specs:   resolveSpecs(specs, m.Samples),
	}
	e.setCandidateBounds()
	return e.sweep(ctx, base.Workers)
}

// engine is one all-pairs sweep over a standardized row arena.
type engine struct {
	genes, samples int
	z64            []float64 // genes×samples, zero-mean unit-norm rows (admission oracle)
	z32            []float32 // same rows in float32 (arena32 only)
	width          arenaWidth
	tile           int // rows per tile
	specs          []resolvedSpec
	posCand        float64 // block r ≥ posCand makes a pair a candidate
	negCand        float64 // block r ≤ -negCand does too (+Inf: no negative spec)
	dense          bool    // a threshold sits inside its band: skip the prefilter
}

// resolvedSpec is one admission rule with its p-value cut folded into the
// threshold: admit when |r| ≥ thresh, negative r only when negative.
type resolvedSpec struct {
	thresh   float64
	negative bool
}

// resolveSpecs folds each spec's p-value ceiling into a critical |r| so
// the pair loop is pure comparisons.
func resolveSpecs(specs []SweepSpec, samples int) []resolvedSpec {
	rs := make([]resolvedSpec, len(specs))
	for i, sp := range specs {
		th := sp.MinAbsR
		if th < 0 {
			th = 0
		}
		if rc := criticalR(sp.MaxP, samples); rc > th {
			th = rc
		}
		rs[i] = resolvedSpec{thresh: th, negative: sp.Negative}
	}
	return rs
}

// setCandidateBounds derives the block-kernel prefilter bounds: the lowest
// admission threshold over all specs (positive side) and over the
// negative-gated specs (negative side), each widened by the arena's
// recheck band so no admissible pair can be filtered out. When a widened
// bound reaches zero the prefilter admits (almost) everything and would
// only double the work, so the sweep falls back to the dense canonical
// path — exactly the pre-blocking engine.
func (e *engine) setCandidateBounds() {
	band := recheckBand64(e.samples)
	if e.width == arena32 {
		band = recheckBand32(e.samples)
	}
	pos, neg := math.Inf(1), math.Inf(1)
	for _, sp := range e.specs {
		if sp.thresh < pos {
			pos = sp.thresh
		}
		if sp.negative && sp.thresh < neg {
			neg = sp.thresh
		}
	}
	e.posCand = pos - band
	e.negCand = neg - band
	e.dense = e.posCand <= 0 || e.negCand <= 0
}

// standardizeInto builds the flat arena of standardized expression rows:
// row g occupies z[g*samples:(g+1)*samples], has zero mean and unit L2
// norm, so dot(row u, row v) is the Pearson correlation of genes u and v.
// For SpearmanCorr each row is first replaced by its average-tied ranks.
// Zero-variance rows become all-zero and therefore correlate to 0 with
// everything, matching Pearson's and Spearman's degenerate-input behavior.
// ctx is polled roughly every 256Ki written elements, so the interval
// tracks row cost instead of row count.
func standardizeInto(ctx context.Context, z []float64, m *Matrix, kind CorrelationKind) error {
	s := m.Samples
	pollEvery := 1 + (1<<18)/(s+1)
	var rk ranker
	for g := 0; g < m.Genes; g++ {
		if g%pollEvery == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		src := m.Row(g)
		dst := z[g*s : (g+1)*s]
		if kind == SpearmanCorr {
			rk.rankInto(dst, src)
			src = dst
		}
		var sum float64
		for _, v := range src {
			sum += v
		}
		mean := sum / float64(s)
		var ss float64
		for i, v := range src {
			d := v - mean
			dst[i] = d
			ss += d * d
		}
		if ss == 0 {
			// ss is a sum of squares, so ss == 0 forces every deviation
			// written above to be exactly v - v = +0.0: the row is already
			// all-zero and needs no second pass.
			continue
		}
		inv := 1 / math.Sqrt(ss)
		for i := range dst {
			dst[i] *= inv
		}
	}
	return nil
}

// standardizedRows is standardizeInto over a freshly allocated arena, for
// tests and one-shot callers; the engine itself pools arenas (arena.go).
func standardizedRows(ctx context.Context, m *Matrix, kind CorrelationKind) ([]float64, error) {
	z := make([]float64, m.Genes*m.Samples)
	if err := standardizeInto(ctx, z, m, kind); err != nil {
		return nil, err
	}
	return z, nil
}

// tileRows picks the tile height so that one tile of standardized rows is
// about 32 KiB — two tiles (the working set of a tile-pair block) then fit
// comfortably in L1d+L2 and every row loaded for a block is reused against
// the whole opposing tile. float32 arenas take tiles twice as tall for the
// same byte budget; the height is kept a multiple of the block width so
// only the final ragged tile pays scalar-tail pairs.
func tileRows(samples int, w arenaWidth) int {
	if samples <= 0 {
		// Degenerate zero-width rows (every correlation is 0, matching the
		// per-pair functions); any tile height works.
		return 256
	}
	elem := 8
	if w == arena32 {
		elem = 4
	}
	const tileBytes = 32 << 10
	t := tileBytes / (samples * elem)
	t &^= blockRows - 1
	if t < 8 {
		t = 8
	}
	if t > 256 {
		t = 256
	}
	return t
}

// sweep runs the blocked triangular pair sweep with the given worker count
// and returns the retained edges per spec in unspecified order. Workers
// poll ctx at every tile-pair claim; a cancelled sweep joins its workers
// and returns ctx.Err().
func (e *engine) sweep(ctx context.Context, workers int) ([][]ScoredEdge, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nspec := len(e.specs)
	tiles := (e.genes + e.tile - 1) / e.tile
	totalPairs := int64(tiles) * int64(tiles+1) / 2
	if totalPairs == 0 {
		return make([][]ScoredEdge, nspec), ctx.Err()
	}
	if int64(workers) > totalPairs {
		workers = int(totalPairs)
	}
	cols := make([]*collector, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	var errOnce sync.Once
	var werr error
	fail := func(err error) { errOnce.Do(func() { werr = err }) }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Panic containment: a worker panic (a kernel bug, or an armed
			// expr.sweep.tile panic failpoint) becomes the sweep's error
			// instead of killing the process — these goroutines are not
			// under any net/http recover, so an uncontained panic here
			// would take a shared daemon down.
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("expr: sweep worker panicked: %v", r))
				}
			}()
			c := newCollector(e)
			cols[w] = c
			for ctx.Err() == nil {
				k := next.Add(1) - 1
				if k >= totalPairs {
					break
				}
				// Failpoint: every tile claim (delay mode models slow
				// hardware under load tests; error mode aborts the sweep).
				if err := faultinject.Eval("expr.sweep.tile"); err != nil {
					fail(err)
					break
				}
				ti, tj := decodeTilePair(k, tiles)
				e.sweepBlock(ti, tj, c)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}
	outs := make([][]ScoredEdge, nspec)
	for si := range outs {
		total := 0
		for _, c := range cols {
			total += len(c.out[si])
		}
		merged := make([]ScoredEdge, 0, total)
		for _, c := range cols {
			merged = append(merged, c.out[si]...)
		}
		outs[si] = merged
	}
	return outs, nil
}

// decodeTilePair maps a linear index k in [0, T(T+1)/2) to the k-th tile
// pair (i, j), i ≤ j, enumerated row-major over the upper triangle:
// (0,0)..(0,T-1), (1,1)..(1,T-1), ... The closed form inverts the prefix
// count c(i) = i·T − i(i−1)/2; the correction loop absorbs float rounding.
func decodeTilePair(k int64, tiles int) (int, int) {
	tf := float64(tiles)
	i := int((2*tf + 1 - math.Sqrt((2*tf+1)*(2*tf+1)-8*float64(k))) / 2)
	if i < 0 {
		i = 0
	}
	rowStart := func(i int) int64 { return int64(i)*int64(tiles) - int64(i)*int64(i-1)/2 }
	for i > 0 && rowStart(i) > k {
		i--
	}
	for i+1 < tiles && rowStart(i+1) <= k {
		i++
	}
	j := i + int(k-rowStart(i))
	return i, j
}

// collector accumulates one worker's admitted edges per spec. Each output
// slice is grown ahead of a tile pair using the admit rate observed over
// the tiles already swept, so dense tiles stop re-growing the slice
// append by append.
type collector struct {
	e      *engine
	out    [][]ScoredEdge
	pairs  int64   // pairs examined so far
	admits []int64 // admissions so far, per spec
}

func newCollector(e *engine) *collector {
	return &collector{
		e:      e,
		out:    make([][]ScoredEdge, len(e.specs)),
		admits: make([]int64, len(e.specs)),
	}
}

// beginBlock reserves capacity for a tile pair of the given pair count
// from the running admit rate (with 25% headroom). The first tile has no
// rate yet and grows organically.
func (c *collector) beginBlock(pairs int64) {
	if c.pairs == 0 {
		return
	}
	for si := range c.out {
		if est := int(float64(c.admits[si]) / float64(c.pairs) * float64(pairs)); est > 0 {
			c.out[si] = slices.Grow(c.out[si], est+est/4+1)
		}
	}
}

// admit decides pair (g1, g2) with the canonical float64 dot kernel —
// whatever block kernel nominated it — and appends it to every spec it
// clears. This single admission point is what keeps edge sets and
// coefficients bit-identical across arena widths and ISAs.
func (c *collector) admit(g1, g2 int) {
	e := c.e
	s := e.samples
	r := dot(e.z64[g1*s:g1*s+s], e.z64[g2*s:g2*s+s])
	for si := range e.specs {
		sp := &e.specs[si]
		if r < 0 {
			if !sp.negative || -r < sp.thresh {
				continue
			}
		} else if r < sp.thresh {
			continue
		}
		c.out[si] = append(c.out[si], ScoredEdge{U: int32(g1), V: int32(g2), R: r})
		c.admits[si]++
	}
}

// sweepBlock computes all pairs between tile ti and tile tj (the triangle
// above the diagonal when ti == tj), dispatching to the arena's block
// kernel or the dense canonical path.
func (e *engine) sweepBlock(ti, tj int, c *collector) {
	lo1, hi1 := e.tileSpan(ti)
	lo2, hi2 := e.tileSpan(tj)
	var pairs int64
	if ti == tj {
		n := int64(hi1 - lo1)
		pairs = n * (n - 1) / 2
	} else {
		pairs = int64(hi1-lo1) * int64(hi2-lo2)
	}
	c.beginBlock(pairs)
	switch {
	case e.dense:
		e.sweepBlockDense(lo1, hi1, lo2, hi2, ti == tj, c)
	case e.width == arena32:
		e.sweepBlockF32(lo1, hi1, lo2, hi2, ti == tj, c)
	default:
		e.sweepBlockF64(lo1, hi1, lo2, hi2, ti == tj, c)
	}
	c.pairs += pairs
}

// sweepBlockF64 is the float64 register-blocked tile sweep: one row
// against four partners per kernel call, banded candidates re-decided by
// the canonical dot, ragged tails (fewer than four partners left, only at
// tile edges and along the diagonal) decided canonically outright.
func (e *engine) sweepBlockF64(lo1, hi1, lo2, hi2 int, diag bool, c *collector) {
	s := e.samples
	var r4 [4]float64
	for g1 := lo1; g1 < hi1; g1++ {
		a := e.z64[g1*s : g1*s+s]
		start := lo2
		if diag {
			start = g1 + 1
		}
		g2 := start
		for ; g2+blockRows <= hi2; g2 += blockRows {
			o := g2 * s
			blockDot4F64(a, e.z64[o:o+s], e.z64[o+s:o+2*s], e.z64[o+2*s:o+3*s], e.z64[o+3*s:o+4*s], &r4)
			for k := 0; k < blockRows; k++ {
				if r := r4[k]; r >= e.posCand || -r >= e.negCand {
					c.admit(g1, g2+k)
				}
			}
		}
		for ; g2 < hi2; g2++ {
			c.admit(g1, g2)
		}
	}
}

// sweepBlockF32 is sweepBlockF64 over the float32 arena: same shape,
// twice the lanes, block results widened to float64 against the (wider,
// recheckBand32) candidate bounds. Admission still reads the float64 rows.
func (e *engine) sweepBlockF32(lo1, hi1, lo2, hi2 int, diag bool, c *collector) {
	s := e.samples
	var r4 [4]float32
	for g1 := lo1; g1 < hi1; g1++ {
		a := e.z32[g1*s : g1*s+s]
		start := lo2
		if diag {
			start = g1 + 1
		}
		g2 := start
		for ; g2+blockRows <= hi2; g2 += blockRows {
			o := g2 * s
			blockDot4F32(a, e.z32[o:o+s], e.z32[o+s:o+2*s], e.z32[o+2*s:o+3*s], e.z32[o+3*s:o+4*s], &r4)
			for k := 0; k < blockRows; k++ {
				if r := float64(r4[k]); r >= e.posCand || -r >= e.negCand {
					c.admit(g1, g2+k)
				}
			}
		}
		for ; g2 < hi2; g2++ {
			c.admit(g1, g2)
		}
	}
}

// sweepBlockDense is the pre-blocking engine: canonical dot for every
// pair. Used when some admission threshold is within its recheck band of
// zero, where the prefilter would nominate (nearly) every pair and the
// block kernels would only add work.
func (e *engine) sweepBlockDense(lo1, hi1, lo2, hi2 int, diag bool, c *collector) {
	for g1 := lo1; g1 < hi1; g1++ {
		start := lo2
		if diag {
			start = g1 + 1
		}
		for g2 := start; g2 < hi2; g2++ {
			c.admit(g1, g2)
		}
	}
}

func (e *engine) tileSpan(t int) (lo, hi int) {
	lo = t * e.tile
	hi = lo + e.tile
	if hi > e.genes {
		hi = e.genes
	}
	return lo, hi
}

// dot is the canonical kernel: the inner product of two standardized
// float64 rows, i.e. their correlation coefficient. It alone decides
// admission and supplies reported coefficients; the block kernels
// (kernel.go) are only banded prefilters in front of it. Eight
// accumulators hide the FP add latency; the slice re-slice lets the
// compiler elide bounds checks.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i <= len(a)-8; i += 8 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
		s4 += a[i+4] * b[i+4]
		s5 += a[i+5] * b[i+5]
		s6 += a[i+6] * b[i+6]
		s7 += a[i+7] * b[i+7]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// criticalR inverts the p-value threshold once per build: it returns the
// smallest float64 r in [0, 1] with PValue(r, n) ≤ maxP, so the per-pair
// significance test reduces to |r| ≥ criticalR in the pair loop. PValue is
// monotone non-increasing in |r|, so bisection to adjacent floats finds the
// exact admission boundary; betacf never runs per pair.
//
// Degenerate cases follow PValue: for n ≤ 2 every pair has p = 1, so the
// result is 0 when maxP ≥ 1 (everything is admissible) and the unattainable
// sentinel 2 otherwise (nothing is). maxP ≤ 0 admits only |r| = 1, whose
// p-value is exactly 0.
func criticalR(maxP float64, n int) float64 {
	if n <= 2 {
		if maxP >= 1 {
			return 0
		}
		return 2
	}
	if PValue(0, n) <= maxP {
		return 0
	}
	if PValue(1, n) > maxP {
		return 2
	}
	lo, hi := 0.0, 1.0 // invariant: PValue(lo) > maxP ≥ PValue(hi)
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			return hi
		}
		if PValue(mid, n) <= maxP {
			hi = mid
		} else {
			lo = mid
		}
	}
}

// toEdges strips the correlation coefficients for bulk staging into a
// graph.Builder.
func toEdges(scored []ScoredEdge) []graph.Edge {
	edges := make([]graph.Edge, len(scored))
	for i, se := range scored {
		edges[i] = graph.Edge{U: se.U, V: se.V}
	}
	return edges
}
