package expr

// Register-blocked micro-kernels for the all-pairs sweep.
//
// The engine's inner loop computes correlations of one standardized row a
// against a block of four partner rows b0..b3 at once, so every element of
// a loaded from memory is reused across four multiply-accumulates. On
// amd64 with AVX2+FMA (detected at runtime, kernel_amd64.s) the block
// kernel retires 8 float64 or 16 float32 MACs per row per cycle-pair; the
// portable fallback below keeps the same 1×4 shape with two accumulators
// per partner so the add-latency chains stay short.
//
// Block kernels are PREFILTERS, never deciders. Whatever ISA or arena
// width produced a block coefficient, a pair is admitted or rejected only by the
// canonical scalar dot (engine.go) over the float64 arena, and only pairs
// whose block coefficient clears an admission threshold minus a sound
// recheck band reach it. That architecture is what makes the edge set
// byte-identical across both arena widths and across machines with and
// without AVX2 — the bands below bound the block-vs-canonical error, so
// no admissible pair can be filtered out and no filtered pair can be
// admissible. See DESIGN.md §7 for the bound derivations.

// blockRows is the partner-block width of the micro-kernel.
const blockRows = 4

// blockDot4F64 computes out[k] = Σ_i a[i]·bk[i] for the four partner rows.
// All five rows must have identical length.
func blockDot4F64(a, b0, b1, b2, b3 []float64, out *[4]float64) {
	if useAVXKernels && len(a) > 0 {
		dot4F64AVX(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], len(a), out)
		return
	}
	blockDot4F64Generic(a, b0, b1, b2, b3, out)
}

// blockDot4F32 is the float32-arena block kernel. Accumulation is float32
// in-register on the portable path and float32 lanes on the AVX path; the
// engine widens the result to float64 before comparing against banded
// thresholds, and recheckBand32 absorbs the accumulated rounding.
func blockDot4F32(a, b0, b1, b2, b3 []float32, out *[4]float32) {
	if useAVXKernels && len(a) > 0 {
		dot4F32AVX(&a[0], &b0[0], &b1[0], &b2[0], &b3[0], len(a), out)
		return
	}
	blockDot4F32Generic(a, b0, b1, b2, b3, out)
}

// blockDot4F64Generic is the portable 1×4 kernel: two interleaved
// accumulators per partner row hide FP add latency; the re-slices let the
// compiler elide bounds checks in the unrolled body.
func blockDot4F64Generic(a, b0, b1, b2, b3 []float64, out *[4]float64) {
	n := len(a)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	var s00, s01, s10, s11, s20, s21, s30, s31 float64
	i := 0
	for ; i+2 <= n; i += 2 {
		x0, x1 := a[i], a[i+1]
		s00 += x0 * b0[i]
		s01 += x1 * b0[i+1]
		s10 += x0 * b1[i]
		s11 += x1 * b1[i+1]
		s20 += x0 * b2[i]
		s21 += x1 * b2[i+1]
		s30 += x0 * b3[i]
		s31 += x1 * b3[i+1]
	}
	if i < n {
		x := a[i]
		s00 += x * b0[i]
		s10 += x * b1[i]
		s20 += x * b2[i]
		s30 += x * b3[i]
	}
	out[0] = s00 + s01
	out[1] = s10 + s11
	out[2] = s20 + s21
	out[3] = s30 + s31
}

// blockDot4F32Generic mirrors blockDot4F64Generic on a float32 arena.
func blockDot4F32Generic(a, b0, b1, b2, b3 []float32, out *[4]float32) {
	n := len(a)
	b0, b1, b2, b3 = b0[:n], b1[:n], b2[:n], b3[:n]
	var s00, s01, s10, s11, s20, s21, s30, s31 float32
	i := 0
	for ; i+2 <= n; i += 2 {
		x0, x1 := a[i], a[i+1]
		s00 += x0 * b0[i]
		s01 += x1 * b0[i+1]
		s10 += x0 * b1[i]
		s11 += x1 * b1[i+1]
		s20 += x0 * b2[i]
		s21 += x1 * b2[i+1]
		s30 += x0 * b3[i]
		s31 += x1 * b3[i+1]
	}
	if i < n {
		x := a[i]
		s00 += x * b0[i]
		s10 += x * b1[i]
		s20 += x * b2[i]
		s30 += x * b3[i]
	}
	out[0] = s00 + s01
	out[1] = s10 + s11
	out[2] = s20 + s21
	out[3] = s30 + s31
}

const (
	ulp32 = 1.0 / (1 << 24) // float32 unit roundoff 2⁻²⁴
	ulp64 = 1.0 / (1 << 52) // float64 unit roundoff 2⁻⁵²
)

// recheckBand64 bounds |block r − canonical r| for the float64 kernels.
// Both are exact reorderings of the same n-term float64 sum of products of
// unit-norm rows, so the classic summation bound |err| ≤ n·u·Σ|aᵢbᵢ| ≤
// n·u (Cauchy-Schwarz) applies to each, doubled for the difference and
// padded with an absolute floor so a zero-sample band is still sound.
func recheckBand64(samples int) float64 {
	return 1e-12 + float64(samples)*8*ulp64
}

// recheckBand32 bounds |float32-block r − canonical float64 r| for
// unit-norm rows of any width n (Σ|aᵢbᵢ| ≤ 1 by Cauchy-Schwarz):
//   - conversion: rounding each element to float32 moves it by at most
//     u32·|z64ᵢ|, so the product sum moves by at most ≈ 2·u32;
//   - accumulation: both kernels split the sum into independent float32
//     chains (two per partner in the portable kernel, sixteen lanes on
//     AVX2) of at most ⌈n/2⌉ products each, and the recursive-summation
//     bound over all chains is (n/2)·u32·Σ|aᵢbᵢ| ≤ (n/2)·u32;
//   - the 64·u32 pad covers the conversion term, the chain reduction, the
//     AVX2 scalar tail (≤ 15 elements) and the canonical dot's own error
//     (n·u64, far below (n/2)·u32).
//
// No term depends on a cap on n, so the band is sound for library
// matrices of any width; TestRecheckBandSoundOnStandardizedRows checks it
// out to 65536 samples. At n = 2048 the band is ≈ 6.6e-5, four orders of
// magnitude below the paper's admission thresholds.
func recheckBand32(samples int) float64 {
	return ulp32 * (float64(samples)/2 + 64)
}

// KernelISA names the active block-kernel implementation, for /statsz,
// benchmarks, and BENCH_*.json provenance.
func KernelISA() string {
	if useAVXKernels {
		return "avx2-fma"
	}
	return "generic"
}
