package expr

import "sync"

// arenaWidth is the element width of the arena the block kernels
// prefilter over. It changes only speed and memory, never the edge set:
// admission always reads the float64 rows (engine.go, admit).
type arenaWidth uint8

const (
	// arena64 prefilters over the standardized float64 rows themselves.
	arena64 arenaWidth = iota
	// arena32 prefilters over a float32 copy of those rows: half the
	// bytes, twice the SIMD lanes, a wider recheck band.
	arena32
)

// String names the width ("float64", "float32").
func (w arenaWidth) String() string {
	if w == arena32 {
		return "float32"
	}
	return "float64"
}

// float32MinSamples is the row width from which the float32 prefilter
// beats the float64 one on the AVX2 kernels. Below it the conversion pass
// and the wider band's extra canonical rechecks cost more than the halved
// bandwidth saves; from it up the sweep is bandwidth-bound and float32
// wins. The crossover comes from BenchmarkSweepArenaGrid (DESIGN.md §7).
const float32MinSamples = 64

// sweepArena is the engine's arena rule, the one place the width is
// chosen: float32 for rows of at least float32MinSamples on the AVX2
// kernels, float64 otherwise. The portable kernels run float32 as scalar
// code, so there the narrower arena buys no lanes and measured no faster
// at any width.
func sweepArena(samples int) arenaWidth {
	if useAVXKernels && samples >= float32MinSamples {
		return arena32
	}
	return arena64
}

// SweepArena names the arena ("float64" or "float32") the engine sweeps a
// matrix with the given sample count in on this machine, for benchmark
// keys and the admission cost model. It reports the engine's choice;
// nothing selects it.
func SweepArena(samples int) string { return sweepArena(samples).String() }

// Arena pooling. Every sweep standardizes rows into a flat genes×samples
// arena, and the service layer rebuilds networks over the same dataset
// shapes constantly (same matrix, different thresholds), so arenas are
// recycled through one sync.Pool instead of make per call.
//
// Lifetime rules (DESIGN.md §7):
//   - An arena is owned by exactly one sweep from arenaFor to release.
//     release only runs after the sweep has joined all its workers (the
//     engine joins even on cancellation), so a pooled arena is never
//     aliased by a live goroutine.
//   - One pool serves every shape: a recycled arena is resliced when its
//     capacity covers the requested shape and regrown when it does not,
//     so request-supplied shapes cannot grow a table of pools.
//   - sync.Pool's GC integration bounds the idle footprint: arenas that
//     stop being checked out are collected with the next GC cycles.

// buildArena is one sweep's row storage. z64 always holds the canonical
// float64 standardized rows (the admission oracle); z32 is sized only for
// arena32 sweeps and holds the same rows rounded to float32.
type buildArena struct {
	z64 []float64
	z32 []float32
}

var arenaPool = sync.Pool{New: func() any { return new(buildArena) }}

// arenaFor checks an arena of the given shape and width out of the pool.
// The contents are stale garbage; the caller overwrites every element
// during standardization.
func arenaFor(genes, samples int, w arenaWidth) *buildArena {
	n := genes * samples
	a := arenaPool.Get().(*buildArena)
	a.z64 = fit(a.z64, n)
	if w == arena32 {
		a.z32 = fit(a.z32, n)
	} else {
		a.z32 = a.z32[:0]
	}
	return a
}

// fit reslices s to length n, regrowing it when its capacity is short.
func fit[T float32 | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// release returns the arena to the pool. The caller must not retain any
// reference into z64/z32 past this call.
func (a *buildArena) release() { arenaPool.Put(a) }
