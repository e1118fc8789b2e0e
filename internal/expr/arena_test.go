package expr

import (
	"context"
	"fmt"
	"testing"
)

// TestArenaPoolReusesAcrossShapes: one pooled arena serves every shape
// its capacity covers, so a stream of never-seen shapes (as HTTP
// synthesis requests produce) allocates neither arenas nor per-shape
// pools once a large arena is warm.
func TestArenaPoolReusesAcrossShapes(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	arenaFor(512, 128, arena32).release()
	genes := 100
	allocs := testing.AllocsPerRun(200, func() {
		genes++ // a new shape every run
		w := arena64
		if genes%2 == 0 {
			w = arena32
		}
		a := arenaFor(genes, 3+genes%97, w)
		if len(a.z64) != genes*(3+genes%97) || (w == arena32) != (len(a.z32) == len(a.z64)) {
			t.Fatalf("arena for %d genes sized %d/%d", genes, len(a.z64), len(a.z32))
		}
		a.release()
	})
	if allocs >= 1 {
		t.Fatalf("%.2f allocations per never-seen shape, want < 1", allocs)
	}
}

// BenchmarkSweepArenaGrid is the measurement behind sweepArena's rule:
// paper-threshold sweeps over planted-module matrices at sample widths on
// both sides of the crossover, in both arena widths, on every available
// kernel ISA. Compare the widths per shape and ISA over interleaved
// counts, e.g.
//
//	go test -c -o expr.test ./internal/expr
//	for i in $(seq 10); do ./expr.test -test.run '^$' -test.bench SweepArenaGrid -test.benchtime 5x; done
func BenchmarkSweepArenaGrid(b *testing.B) {
	saved := useAVXKernels
	defer func() { useAVXKernels = saved }()
	isas := []bool{false}
	if saved {
		isas = append(isas, true)
	}
	specs := []SweepSpec{DefaultNetworkOptions().SweepSpec()}
	for _, genes := range []int{512, 4096} {
		for _, samples := range []int{24, 40, 48, 56, 64, 80, 100, 128} {
			syn, err := Synthesize(SyntheticSpec{Genes: genes, Samples: samples, Modules: 16, ModuleSize: 12, Noise: 0.1, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for _, avx := range isas {
				useAVXKernels = avx
				isa := KernelISA()
				for _, w := range widths {
					b.Run(fmt.Sprintf("%s/%s/%dx%d", isa, w, genes, samples), func(b *testing.B) {
						useAVXKernels = avx
						for i := 0; i < b.N; i++ {
							if _, err := batchScoredArena(context.Background(), syn.M, NetworkOptions{}, specs, w); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
