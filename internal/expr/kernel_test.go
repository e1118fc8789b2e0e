package expr

import (
	"math"
	"math/rand"
	"testing"
)

// withKernelISA runs f once per available block-kernel implementation
// (generic always; AVX2+FMA when this machine has it), restoring the
// detected default afterwards. Differential coverage of both paths is what
// lets CI on any machine vouch for the other.
func withKernelISA(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := useAVXKernels
	defer func() { useAVXKernels = saved }()
	useAVXKernels = false
	t.Run("generic", f)
	if saved {
		useAVXKernels = true
		t.Run("avx2-fma", f)
	}
}

// randRows builds one probe row and four partner rows of width n, with a
// float32 shadow of each.
func randRows(rng *rand.Rand, n int) (a []float64, b [4][]float64, a32 []float32, b32 [4][]float32) {
	a = make([]float64, n)
	a32 = make([]float32, n)
	for i := range a {
		a[i] = rng.NormFloat64()
		a32[i] = float32(a[i])
	}
	for k := range b {
		b[k] = make([]float64, n)
		b32[k] = make([]float32, n)
		for i := range b[k] {
			b[k][i] = rng.NormFloat64()
			b32[k][i] = float32(b[k][i])
		}
	}
	return
}

// TestBlockDotMatchesCanonical pins both block kernels to the canonical
// scalar dot across row widths covering every unroll boundary and tail
// length, on every available ISA. The float64 tolerance is the engine's
// own recheck band — the bound the sweep's correctness rests on.
func TestBlockDotMatchesCanonical(t *testing.T) {
	withKernelISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for n := 0; n <= 131; n++ {
			a, b, a32, b32 := randRows(rng, n)
			var o64 [4]float64
			blockDot4F64(a, b[0], b[1], b[2], b[3], &o64)
			var o32 [4]float32
			blockDot4F32(a32, b32[0], b32[1], b32[2], b32[3], &o32)
			for k := 0; k < 4; k++ {
				want := dot(a, b[k])
				if d := math.Abs(o64[k] - want); d > recheckBand64(n) {
					t.Fatalf("n=%d k=%d: float64 block dot off by %g (band %g)", n, k, d, recheckBand64(n))
				}
				// Raw rows are not unit-norm, so scale the float32 band by
				// the row magnitudes it would be normalized by.
				scale := math.Sqrt(dot(a, a) * dot(b[k], b[k]))
				if scale < 1 {
					scale = 1
				}
				if d := math.Abs(float64(o32[k]) - want); d > recheckBand32(n)*scale {
					t.Fatalf("n=%d k=%d: float32 block dot off by %g (band %g)", n, k, d, recheckBand32(n)*scale)
				}
			}
		}
	})
}

// TestRecheckBandSoundOnStandardizedRows checks the band inequality the
// engine actually relies on: for standardized (unit-norm) rows, the block
// coefficient is within the arena's recheck band of the canonical one.
// Library callers pass matrices of any width and the engine sweeps every
// wide one in float32, so the widths run far past the synthesis cap.
func TestRecheckBandSoundOnStandardizedRows(t *testing.T) {
	withKernelISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, samples := range []int{3, 17, 64, 100, 333, 2048, 4096, 16384, 65536} {
			m := NewMatrix(5, samples)
			for g := 0; g < 5; g++ {
				base := rng.NormFloat64()
				for s := 0; s < samples; s++ {
					// Correlated rows so coefficients are spread over [-1, 1].
					m.Set(g, s, base*math.Sin(float64(s))+0.5*rng.NormFloat64())
				}
			}
			z, err := standardizedRows(t.Context(), m, PearsonCorr)
			if err != nil {
				t.Fatal(err)
			}
			z32 := make([]float32, len(z))
			for i, v := range z {
				z32[i] = float32(v)
			}
			row := func(g int) []float64 { return z[g*samples : (g+1)*samples] }
			row32 := func(g int) []float32 { return z32[g*samples : (g+1)*samples] }
			var o64 [4]float64
			blockDot4F64(row(0), row(1), row(2), row(3), row(4), &o64)
			var o32 [4]float32
			blockDot4F32(row32(0), row32(1), row32(2), row32(3), row32(4), &o32)
			for k := 0; k < 4; k++ {
				want := dot(row(0), row(k+1))
				if d := math.Abs(o64[k] - want); d > recheckBand64(samples) {
					t.Errorf("samples=%d: float64 band violated: %g > %g", samples, d, recheckBand64(samples))
				}
				if d := math.Abs(float64(o32[k]) - want); d > recheckBand32(samples) {
					t.Errorf("samples=%d: float32 band violated: %g > %g", samples, d, recheckBand32(samples))
				}
			}
		}
	})
}

func TestKernelISANames(t *testing.T) {
	saved := useAVXKernels
	defer func() { useAVXKernels = saved }()
	useAVXKernels = false
	if got := KernelISA(); got != "generic" {
		t.Fatalf("KernelISA() = %q, want generic", got)
	}
	useAVXKernels = true
	if got := KernelISA(); got != "avx2-fma" {
		t.Fatalf("KernelISA() = %q, want avx2-fma", got)
	}
}
