package expr

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parsample/internal/graph"
)

// diffMatrices builds the matrix zoo for the differential suites: a
// modular synthetic (near-threshold coefficients on both signs), a small
// dense-noise matrix (coefficients spread across [-1, 1], so loose
// thresholds land many pairs near the cut), a matrix with planted
// degenerate rows (constant, i.e. zero variance), and a wide modular
// matrix.
func diffMatrices(t *testing.T) map[string]*Matrix {
	t.Helper()
	mats := make(map[string]*Matrix)

	syn, err := Synthesize(SyntheticSpec{Genes: 160, Samples: 24, Modules: 4, ModuleSize: 10, Noise: 0.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	mats["modules"] = syn.M

	rng := rand.New(rand.NewSource(99))
	noisy := NewMatrix(90, 10)
	for g := 0; g < noisy.Genes; g++ {
		for s := 0; s < noisy.Samples; s++ {
			noisy.Set(g, s, rng.NormFloat64())
		}
	}
	mats["noise"] = noisy

	degen, err := Synthesize(SyntheticSpec{Genes: 80, Samples: 16, Modules: 2, ModuleSize: 8, Noise: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < degen.M.Samples; s++ {
		degen.M.Set(5, s, 4.0) // constant row
		degen.M.Set(41, s, 0)  // all-zero row
	}
	mats["degenerate"] = degen.M

	// Wide enough for the engine to pick the float32 arena itself on AVX2.
	wide, err := Synthesize(SyntheticSpec{Genes: 96, Samples: 72, Modules: 3, ModuleSize: 8, Noise: 0.6, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	mats["wide"] = wide.M

	return mats
}

// diffOptions is the admission-rule zoo: the paper's tight cut, loose
// cuts that put many coefficients near the threshold, negative gating,
// and Spearman (rank ties from the degenerate rows included).
func diffOptions() map[string]NetworkOptions {
	return map[string]NetworkOptions{
		"paper":         {Kind: PearsonCorr, MinAbsR: 0.95, MaxP: 0.0005},
		"loose":         {Kind: PearsonCorr, MinAbsR: 0.3, MaxP: 0.2},
		"negative":      {Kind: PearsonCorr, MinAbsR: 0.5, MaxP: 0.1, Negative: true},
		"spearman":      {Kind: SpearmanCorr, MinAbsR: 0.6, MaxP: 0.05},
		"spearman-neg":  {Kind: SpearmanCorr, MinAbsR: 0.4, MaxP: 0.2, Negative: true},
		"p-only":        {Kind: PearsonCorr, MinAbsR: 0, MaxP: 0.001},
		"dense-allpass": {Kind: PearsonCorr, MinAbsR: 0, MaxP: 1},
	}
}

// widths lists both arena widths, for tests that force each one.
var widths = []arenaWidth{arena64, arena32}

// pairsIn is CorrelatedPairs in a forced arena width.
func pairsIn(t *testing.T, m *Matrix, opts NetworkOptions, w arenaWidth) []ScoredEdge {
	t.Helper()
	outs, err := batchScoredArena(context.Background(), m, opts, []SweepSpec{opts.SweepSpec()}, w)
	if err != nil {
		t.Fatal(err)
	}
	sortEdges(outs[0])
	return outs[0]
}

// TestFloat32EdgeSetsByteIdenticalToFloat64 is the float32 arena's
// contract: for every matrix, statistic, sign gate and threshold in the
// zoo, and on every available kernel ISA, a sweep forced onto the float32
// arena returns the exact []ScoredEdge of one forced onto the float64
// arena — same pairs, same coefficients, bit for bit — and so does the
// engine's own pick. The recheck band makes this hold by construction;
// this test is the empirical pin.
func TestFloat32EdgeSetsByteIdenticalToFloat64(t *testing.T) {
	mats := diffMatrices(t)
	withKernelISA(t, func(t *testing.T) {
		for mname, m := range mats {
			for oname, opts := range diffOptions() {
				opts.Workers = 3
				want := pairsIn(t, m, opts, arena64)
				if got := pairsIn(t, m, opts, arena32); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: float32 edge set diverges: %d edges vs %d", mname, oname, len(got), len(want))
				}
				if got := CorrelatedPairs(m, opts); !reflect.DeepEqual(got, want) {
					t.Errorf("%s/%s: engine's %s arena diverges: %d edges vs %d", mname, oname, sweepArena(m.Samples), len(got), len(want))
				}
			}
		}
	})
}

// TestBatchSweepMatchesIndependentSweeps is the batched-sweep property
// test: one batched pass over k specs returns exactly what k independent
// CorrelatedPairs runs return, per spec, in both arena widths and on
// every ISA.
func TestBatchSweepMatchesIndependentSweeps(t *testing.T) {
	mats := diffMatrices(t)
	specsOpts := []NetworkOptions{
		{Kind: PearsonCorr, MinAbsR: 0.95, MaxP: 0.0005},
		{Kind: PearsonCorr, MinAbsR: 0.8, MaxP: 0.01},
		{Kind: PearsonCorr, MinAbsR: 0.5, MaxP: 0.1, Negative: true},
		{Kind: PearsonCorr, MinAbsR: 0.3, MaxP: 0.5},
		{Kind: PearsonCorr, MinAbsR: 0, MaxP: 0.9}, // dense spec drags the whole batch onto the dense path
	}
	specs := make([]SweepSpec, len(specsOpts))
	for i, o := range specsOpts {
		specs[i] = o.SweepSpec()
	}
	withKernelISA(t, func(t *testing.T) {
		for _, w := range widths {
			for mname, m := range mats {
				base := NetworkOptions{Kind: PearsonCorr, Workers: 2}
				outs, err := batchScoredArena(context.Background(), m, base, specs, w)
				if err != nil {
					t.Fatal(err)
				}
				if len(outs) != len(specs) {
					t.Fatalf("%s/%s: got %d outputs for %d specs", mname, w, len(outs), len(specs))
				}
				for i, o := range specsOpts {
					sortEdges(outs[i])
					o.Workers = 2
					want := CorrelatedPairs(m, o)
					if !reflect.DeepEqual(outs[i], want) {
						t.Errorf("%s/%s spec %d: batched sweep diverges from independent sweep (%d vs %d edges)",
							mname, w, i, len(outs[i]), len(want))
					}
				}
			}
		}
	})
}

// TestBatchBuildNetworksMatchesBuildNetwork pins the graph-level form the
// pipeline coalescer consumes. The matrix is wide enough for the engine
// to pick the float32 arena on AVX2; the reference is built from
// float64-arena pairs.
func TestBatchBuildNetworksMatchesBuildNetwork(t *testing.T) {
	syn, err := Synthesize(SyntheticSpec{Genes: 200, Samples: float32MinSamples, Modules: 3, ModuleSize: 12, Noise: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	specsOpts := []NetworkOptions{
		{Kind: SpearmanCorr, MinAbsR: 0.9, MaxP: 0.001},
		{Kind: SpearmanCorr, MinAbsR: 0.7, MaxP: 0.05, Negative: true},
	}
	specs := []SweepSpec{specsOpts[0].SweepSpec(), specsOpts[1].SweepSpec()}
	gs, err := BatchBuildNetworksContext(context.Background(), syn.M, NetworkOptions{Kind: SpearmanCorr}, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range specsOpts {
		b := graph.NewBuilder(syn.M.Genes)
		b.AddEdges(toEdges(pairsIn(t, syn.M, o, arena64)))
		want := b.Build()
		if !reflect.DeepEqual(gs[i], want) {
			t.Errorf("spec %d: batched network differs from the float64 build (%d vs %d edges)", i, gs[i].M(), want.M())
		}
		if got := BuildNetwork(syn.M, o); !reflect.DeepEqual(got, want) {
			t.Errorf("spec %d: BuildNetwork differs from the float64 build (%d vs %d edges)", i, got.M(), want.M())
		}
	}
}

// TestBatchSweepCancellation: a cancelled batch returns ctx.Err() and no
// partial results.
func TestBatchSweepCancellation(t *testing.T) {
	syn, err := Synthesize(SyntheticSpec{Genes: 400, Samples: 32, Modules: 2, ModuleSize: 20, Noise: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outs, err := BatchCorrelatedPairsContext(ctx, syn.M, NetworkOptions{}, []SweepSpec{{MinAbsR: 0.5, MaxP: 1}})
	if err == nil || outs != nil {
		t.Fatalf("cancelled batch: outs=%v err=%v, want nil + error", outs, err)
	}
}

// TestCorrelatedPairsFloat32Deterministic mirrors the engine's Workers
// determinism pin for the float32 arena.
func TestCorrelatedPairsFloat32Deterministic(t *testing.T) {
	syn, err := Synthesize(SyntheticSpec{Genes: 300, Samples: 18, Modules: 3, ModuleSize: 15, Noise: 0.3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var ref []ScoredEdge
	for i, workers := range []int{1, 2, 3, 7} {
		opts := NetworkOptions{MinAbsR: 0.4, MaxP: 0.3, Workers: workers, Negative: true}
		got := pairsIn(t, syn.M, opts, arena32)
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: edge set differs from workers=1", workers)
		}
	}
	if len(ref) == 0 {
		t.Fatal("determinism test admitted no edges; thresholds too tight to be meaningful")
	}
}

// TestSweepArenaRule pins the engine's arena choice at the crossover on
// each ISA and the names benchmark keys and the cost model read.
func TestSweepArenaRule(t *testing.T) {
	withKernelISA(t, func(t *testing.T) {
		for _, samples := range []int{3, float32MinSamples - 1, float32MinSamples, 2048} {
			want := "float64"
			if useAVXKernels && samples >= float32MinSamples {
				want = "float32"
			}
			if got := SweepArena(samples); got != want {
				t.Errorf("SweepArena(%d) = %q, want %q", samples, got, want)
			}
		}
	})
	if got := fmt.Sprint(arena32); got != "float32" {
		t.Errorf("fmt.Sprint(arena32) = %q", got)
	}
}
