package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"parsample"
	"parsample/internal/expr"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/ontology"
)

// overlap-sweep shape: 8192 genes × 100 samples at the paper's cut
// (r ≥ 0.95, p ≤ 0.0005).
const (
	sweepGenes   = 8192
	sweepSamples = 100
)

// sweepBaseSeed fixes the matrix and the ontology of overlap-sweep; the
// workload seed reorders the matrix's sample columns. Scoring's time on
// matrices and ontologies generated from seeds 1 to 8 ranged from 79 ms to
// 159 ms, a fifth of an operation, so a per-seed matrix would measure the
// seed, not the program.
const sweepBaseSeed = 1

// overlapSweep is the overlap-sweep workload: a cold Pipeline.Run from a
// generated matrix through the correlation sweep, HD order, chordal-nocomm
// P=2, MCODE and scoring. The API cannot carry an inline matrix, so it
// goes through the facade rather than HTTP.
type overlapSweep struct {
	in       parsample.PipelineInput
	wantHash [32]byte
	wantCl   []mcode.Cluster
	want     chainCounts
	ls       layerSamples
	store    storeTally
}

func setupSweep(ctx context.Context, seed int64, _ string) (instance, error) {
	base, err := generateOverlap(overlapDefault(sweepGenes, sweepSamples, sweepBaseSeed))
	if err != nil {
		return nil, err
	}
	m := permuteSamples(base.M, rand.New(rand.NewSource(seed)).Perm(sweepSamples))
	dag := ontology.Generate(ontology.GenerateSpec{Depth: 10, Branch: 3, Seed: sweepBaseSeed + 1})
	ann := ontology.AnnotateModules(dag, sweepGenes, base.Modules, 6, sweepBaseSeed+2)
	w := &overlapSweep{in: parsample.PipelineInput{
		Name:    "overlap-sweep",
		Matrix:  m,
		Network: parsample.DefaultNetworkOptions(),
		Filter:  parsample.FilterOptions{Algorithm: chainAlgorithm, Ordering: chainOrdering, P: chainP, Seed: seed},
		DAG:     dag,
		Ann:     ann,
	}}
	res, err := parsample.New().Run(ctx, w.in)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	w.wantHash, w.wantCl = edgeHash(res.Network), res.Clusters
	w.want = chainCounts{filteredEdges: res.Filtered.M(), clusters: len(res.Clusters)}
	if err := checkFilterWorks(res.Network.M(), res.Filtered.M()); err != nil {
		return nil, err
	}
	if _, err := w.op(ctx, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// checkFilterWorks is the non-degeneracy check: a workload on which the
// chordal filter keeps every edge would time a filter that does nothing.
func checkFilterWorks(networkEdges, keptEdges int) error {
	if networkEdges == 0 || keptEdges >= networkEdges {
		return fmt.Errorf("degenerate input: the filter kept %d of %d edges", keptEdges, networkEdges)
	}
	return nil
}

// edgeHash is a SHA-256 over g's edges in CSR order.
func edgeHash(g *graph.Graph) [32]byte {
	h := sha256.New()
	var buf [8]byte
	g.ForEachEdge(func(u, v int32) {
		binary.LittleEndian.PutUint32(buf[:4], uint32(u))
		binary.LittleEndian.PutUint32(buf[4:], uint32(v))
		h.Write(buf[:])
	})
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func (w *overlapSweep) op(ctx context.Context, _ int) (time.Duration, error) {
	p := parsample.New()
	defer p.Close()
	start := time.Now()
	res, err := p.Run(ctx, w.in)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if edgeHash(res.Network) != w.wantHash || !reflect.DeepEqual(res.Clusters, w.wantCl) {
		return lat, errMismatch
	}
	w.store.add(p.Stats())
	return lat, nil
}

func (w *overlapSweep) traced(ctx context.Context, _ int, root spanRef) error {
	var g *graph.Graph
	var err error
	root.timed("expr.BuildNetworkContext", func() { g, err = expr.BuildNetworkContext(ctx, w.in.Matrix, w.in.Network) })
	if err != nil {
		return err
	}
	w.ls.add("expr.edges", float64(g.M()))
	got, err := tracedChain(ctx, root, g, w.in.Filter.Seed, w.in.DAG, w.in.Ann, &w.ls)
	if err != nil {
		return err
	}
	if got != w.want {
		return fmt.Errorf("traced chain gave %+v, the pipeline %+v", got, w.want)
	}
	return nil
}

func (w *overlapSweep) layerMetrics(spans []span) (map[string]float64, error) {
	vals := chainLayerMetrics(spans, &w.ls)
	n := float64(w.in.Matrix.Genes)
	pairs := n * (n - 1) / 2
	vals["expr.pairs"] = pairs
	if us := 1000 * vals["expr.sweep_ms"]; us > 0 {
		vals["expr.pairs_per_us"] = pairs / us
	}
	// Computed, not measured: each pair is one dot product reading two
	// standardized float64 rows.
	vals["expr.bytes_computed"] = pairs * 2 * float64(w.in.Matrix.Samples) * 8
	storeMetrics(vals, w.store.total())
	return vals, nil
}

func (w *overlapSweep) close() {}
