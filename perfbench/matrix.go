package main

import (
	"fmt"
	"math"
	"math/rand"

	"parsample/internal/expr"
)

// overlapSpec parameterizes the overlap-sweep expression matrix. The stock
// expr.Synthesize plants disjoint modules of near-identical genes, whose
// correlation network is a union of cliques the chordal filter keeps whole;
// this generator plants overlapping modules instead, so every stage of the
// chain has real work to do.
type overlapSpec struct {
	Genes   int
	Samples int
	// Factors is the length of the latent-factor chain; consecutive factors
	// correlate with coefficient Rho. Windows wrap around its end.
	Factors int
	Rho     float64
	// PerFactor genes are anchored at each factor. A gene anchored at k
	// loads on factors k, k+1 and k+2 with random mixing weights, so the
	// genes of one window lie on a curved patch of factor space and
	// neighbouring windows share genes' loadings.
	PerFactor int
	// Mix bounds the random weight on the two factors after the anchor
	// (the anchor's own weight is 1).
	Mix float64
	// Noise is the standard deviation of each module gene's private noise.
	Noise float64
	// Hubs genes load evenly on a whole window with a quarter of Noise,
	// so each correlates with many genes of that window.
	Hubs int
	Seed int64
}

// overlapDefault is the overlap-sweep shape at a given size.
func overlapDefault(genes, samples int, seed int64) overlapSpec {
	return overlapSpec{
		Genes: genes, Samples: samples,
		Factors: 48, Rho: 0.6, PerFactor: 40, Mix: 2,
		Noise: 0.1, Hubs: 64, Seed: seed,
	}
}

// overlapResult is a generated matrix with its planted modules: module k
// holds the genes anchored at factor k plus the hubs of window k.
type overlapResult struct {
	M       *expr.Matrix
	Modules [][]int32
}

// generateOverlap builds the matrix. It is a pure function of spec.
func generateOverlap(spec overlapSpec) (*overlapResult, error) {
	planted := spec.Factors*spec.PerFactor + spec.Hubs
	if spec.Samples <= 2 || spec.Factors < 3 || planted > spec.Genes {
		return nil, fmt.Errorf("overlap matrix: %d planted genes, %d factors, %d samples do not fit %d genes",
			planted, spec.Factors, spec.Samples, spec.Genes)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	factors := make([][]float64, spec.Factors)
	innov := math.Sqrt(1 - spec.Rho*spec.Rho)
	for k := range factors {
		f := make([]float64, spec.Samples)
		for s := range f {
			f[s] = rng.NormFloat64()
			if k > 0 {
				f[s] = spec.Rho*factors[k-1][s] + innov*f[s]
			}
		}
		factors[k] = f
	}

	m := expr.NewMatrix(spec.Genes, spec.Samples)
	for g := 0; g < spec.Genes; g++ {
		for s := 0; s < spec.Samples; s++ {
			m.Set(g, s, rng.NormFloat64())
		}
	}
	// Planted genes take a random subset of rows, so module membership is
	// not visible in the gene ids.
	perm := rng.Perm(spec.Genes)
	next := 0
	res := &overlapResult{M: m, Modules: make([][]int32, spec.Factors)}
	plant := func(k int, w [3]float64, noise float64) {
		gid := perm[next]
		next++
		res.Modules[k] = append(res.Modules[k], int32(gid))
		for s := 0; s < spec.Samples; s++ {
			v := noise * rng.NormFloat64()
			for j, wj := range w {
				v += wj * factors[(k+j)%spec.Factors][s]
			}
			m.Set(gid, s, v)
		}
	}
	for k := 0; k < spec.Factors; k++ {
		for i := 0; i < spec.PerFactor; i++ {
			plant(k, [3]float64{1, spec.Mix * rng.Float64(), spec.Mix * rng.Float64()}, spec.Noise)
		}
	}
	for h := 0; h < spec.Hubs; h++ {
		k := rng.Intn(spec.Factors)
		plant(k, [3]float64{1, spec.Mix / 2, spec.Mix / 2}, spec.Noise/4)
	}
	return res, nil
}

// permuteSamples returns m with its sample columns reordered: column
// perm[s] of the result is column s of m. Every gene pair keeps its
// correlation, so the network, and all work after the sweep, is m's.
func permuteSamples(m *expr.Matrix, perm []int) *expr.Matrix {
	out := expr.NewMatrix(m.Genes, m.Samples)
	for g := 0; g < m.Genes; g++ {
		row, src := out.Row(g), m.Row(g)
		for s, to := range perm {
			row[to] = src[s]
		}
	}
	return out
}
