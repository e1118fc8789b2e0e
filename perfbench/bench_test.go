package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"parsample/internal/expr"
	"parsample/internal/graph"
	"parsample/internal/sampling"
)

func smallOverlap(seed int64) overlapSpec {
	s := overlapDefault(1024, 100, seed)
	s.Factors, s.PerFactor, s.Hubs = 12, 40, 8
	return s
}

func TestGenerateOverlapDeterministicPerSeed(t *testing.T) {
	a, err := generateOverlap(smallOverlap(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := generateOverlap(smallOverlap(7))
	c, _ := generateOverlap(smallOverlap(8))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different matrices")
	}
	if reflect.DeepEqual(a.M, c.M) {
		t.Fatal("different seeds gave the same matrix")
	}
	if len(a.Modules) != 12 {
		t.Fatalf("got %d modules, want one per factor", len(a.Modules))
	}
}

func TestGenerateOverlapRejectsOverfullSpec(t *testing.T) {
	s := smallOverlap(1)
	s.Genes = s.Factors*s.PerFactor + s.Hubs - 1
	if _, err := generateOverlap(s); err == nil {
		t.Fatal("expected an error when planted genes exceed the matrix")
	}
}

// Reordering the sample columns must leave the correlation network as it
// is: overlap-sweep's seed does only that.
func TestPermuteSamplesKeepsNetwork(t *testing.T) {
	ctx := context.Background()
	gen, err := generateOverlap(smallOverlap(5))
	if err != nil {
		t.Fatal(err)
	}
	perm := []int{}
	for s := gen.M.Samples - 1; s >= 0; s-- {
		perm = append(perm, s)
	}
	m := permuteSamples(gen.M, perm)
	if m.At(3, 0) != gen.M.At(3, gen.M.Samples-1) {
		t.Fatal("column 0 of the result is not the last column of the input")
	}
	a, err := expr.BuildNetworkContext(ctx, gen.M, expr.DefaultNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := expr.BuildNetworkContext(ctx, m, expr.DefaultNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.M() == 0 || edgeHash(a) != edgeHash(b) {
		t.Fatalf("networks differ: %d and %d edges", a.M(), b.M())
	}
}

// keptEdges filters g the way the chain workloads do.
func keptEdges(t *testing.T, g *graph.Graph) int {
	t.Helper()
	res, err := sampling.RunContext(context.Background(), chainAlgorithm, g, sampling.Options{
		Order: graph.Order(g, chainOrdering, 0), P: chainP,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Edges.Len()
}

// The overlap-sweep input must give the filter work (kept ratio < 1),
// where the stock synthesizer's disjoint modules are kept whole.
func TestFilterWorkCheck(t *testing.T) {
	ctx := context.Background()
	gen, err := generateOverlap(smallOverlap(3))
	if err != nil {
		t.Fatal(err)
	}
	g, err := expr.BuildNetworkContext(ctx, gen.M, expr.DefaultNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	kept := keptEdges(t, g)
	if err := checkFilterWorks(g.M(), kept); err != nil {
		t.Fatalf("overlap matrix: %v", err)
	}
	if r := float64(kept) / float64(g.M()); r > 0.95 {
		t.Errorf("kept ratio %.3f: the filter barely works on the overlap matrix", r)
	}

	syn, err := expr.Synthesize(expr.SyntheticSpec{Genes: 1024, Samples: 100, Modules: 16, ModuleSize: 12, Noise: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sg, err := expr.BuildNetworkContext(ctx, syn.M, expr.DefaultNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFilterWorks(sg.M(), keptEdges(t, sg)); err == nil {
		t.Fatal("the check accepted disjoint cliques, which the filter keeps whole")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Op: 1, ID: 1, Name: "server.POST", Start: 0, End: 10 * ms},
		// Overlapping children, one sticking out of the parent.
		{Op: 1, ID: 2, Parent: 1, Name: "pipeline.a", Start: 1 * ms, End: 4 * ms},
		{Op: 1, ID: 3, Parent: 1, Name: "pipeline.b", Start: 3 * ms, End: 6 * ms},
		{Op: 1, ID: 4, Parent: 1, Name: "pipeline.c", Start: 8 * ms, End: 12 * ms},
		// A grandchild counts against its own parent only.
		{Op: 1, ID: 5, Parent: 3, Name: "expr.d", Start: 4 * ms, End: 5 * ms},
		// Same parent ID in another operation is a different span.
		{Op: 2, ID: 6, Name: "server.POST", Start: 0, End: 2 * ms},
		{Op: 1, ID: 7, Name: "mcode.w", Start: 20 * ms, End: 21 * ms, Extra: true},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 3 * ms, 2: 3 * ms, 3: 2 * ms, 4: 4 * ms, 5: 1 * ms, 6: 2 * ms, 7: 1 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	layers := opLayerSelf(spans)
	if got := layers[1]; got["server"] != 3*ms || got["pipeline"] != 9*ms || got["expr"] != 1*ms || got["mcode"] != 0 {
		t.Fatalf("op 1 layer self times %v", got)
	}
}

func TestCoveredDisjointAndEmpty(t *testing.T) {
	if c := covered(nil, 0, 10); c != 0 {
		t.Fatalf("no children covered %v", c)
	}
	ivs := [][2]time.Duration{{5, 6}, {1, 2}, {-3, -1}}
	if c := covered(ivs, 0, 10); c != 2 {
		t.Fatalf("covered %v, want 2", c)
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // reversed: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n, p   int
		value  float64
		beyond int
		marked bool
	}{
		{100, 90, 90, 10, false},
		{99, 90, 90, 9, true},
		{20, 50, 10, 10, false},
		{19, 50, 10, 9, true},
		{1, 50, 1, 0, true},
	} {
		q := percentile(seq(c.n), float64(c.p))
		if q.Value != c.value || q.Beyond != c.beyond || q.Samples != c.n || q.Marked() != c.marked {
			t.Errorf("n=%d p%d: got %+v marked=%v, want value %v beyond %d marked %v",
				c.n, c.p, q, q.Marked(), c.value, c.beyond, c.marked)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles %v", got)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got := quartiles([]float64{1, 2}); got != [3]float64{0.75, 1.5, 2.25} {
		t.Fatalf("quartiles of two %v", got)
	}
}

func TestCompareSets(t *testing.T) {
	var spec benchSpec
	if err := json.Unmarshal([]byte(`{"end_to_end":[
		{"name":"ops_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`), &spec); err != nil {
		t.Fatal(err)
	}
	steady := runSet{"w": {"ops_per_s": {100, 101, 99, 100, 100}, "setup_s": {1, 1.1, 1, 0.9, 1}}}
	slower := runSet{"w": {"ops_per_s": {80, 81, 79, 80, 80}, "setup_s": {1, 1, 1, 1, 1}}}
	faster := runSet{"w": {"ops_per_s": {120, 121, 119, 120, 120}, "setup_s": {1, 1, 1, 1, 1}}}
	var out bytes.Buffer
	if !compareSets(&out, spec, steady, steady) {
		t.Fatalf("identical sets disagree:\n%s", out.String())
	}
	if compareSets(&out, spec, steady, slower) {
		t.Fatalf("a 20%% throughput drop passed a 10%% bound:\n%s", out.String())
	}
	// Same code gives the same verdict whichever set comes first.
	if compareSets(&out, spec, slower, steady) {
		t.Fatalf("a 25%% throughput gain passed a 10%% bound:\n%s", out.String())
	}
	if compareSets(&out, spec, steady, faster) {
		t.Fatalf("a 20%% throughput gain passed a 10%% bound:\n%s", out.String())
	}
	noisy := runSet{"w": {"ops_per_s": {50, 150, 100, 70, 130}, "setup_s": {1, 1, 1, 1, 1}}}
	if compareSets(&out, spec, noisy, noisy) {
		t.Fatalf("a spread over the bound passed:\n%s", out.String())
	}
	noisySetup := runSet{"w": {"ops_per_s": {100, 101, 99, 100, 100}, "setup_s": {1, 1, 3, 1, 1}}}
	if compareSets(&out, spec, noisySetup, noisySetup) {
		t.Fatalf("a setup_s spread over the bound passed:\n%s", out.String())
	}
	if compareSets(&out, spec, steady, runSet{}) {
		t.Fatalf("a workload missing from one set passed:\n%s", out.String())
	}
}

// BENCHMARK.json names the program's workloads in order and the
// end-to-end metrics an untraced run fills; the per-layer metrics are read
// from it at run time.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	var names []string
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, endToEnd) {
		t.Errorf("end_to_end %v, program %v", names, endToEnd)
	}
}
