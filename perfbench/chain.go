package main

import (
	"context"
	"fmt"
	"sync"

	"parsample"
	"parsample/internal/analysis"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/ontology"
	"parsample/internal/sampling"
)

// The chain workloads filter with the paper's configuration.
const (
	chainAlgorithm = sampling.ChordalNoComm
	chainOrdering  = graph.HighDegree
	chainP         = 2
)

// splitSeed mirrors the facade's per-purpose seed derivation, so the
// traced chain, which calls the layer functions directly, draws the same
// streams as a pipeline run with the same filter seed.
func splitSeed(seed int64, purpose uint64) int64 {
	return int64(graph.SplitMix64(uint64(seed) + purpose*0x9e3779b97f4a7c15))
}

const (
	seedPurposeOrder   = 0x4f524452 // "ORDR"
	seedPurposeSampler = 0x53414d50 // "SAMP"
)

// chainCounts is what one chain produced, compared between the untraced
// reference and the traced recomputation.
type chainCounts struct {
	filteredEdges int
	clusters      int
}

// layerSamples collects per-operation values of a traced run.
type layerSamples struct {
	mu   sync.Mutex
	vals map[string][]float64
}

func (l *layerSamples) add(name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.vals == nil {
		l.vals = map[string][]float64{}
	}
	l.vals[name] = append(l.vals[name], v)
}

// medians returns the median of every collected series.
func (l *layerSamples) medians() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]float64, len(l.vals))
	for k, xs := range l.vals {
		out[k] = median(xs)
	}
	return out
}

// count returns the length of one series.
func (l *layerSamples) count(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.vals[name])
}

// max returns the largest value of one series (0 when empty).
func (l *layerSamples) max(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := 0.0
	for _, v := range l.vals[name] {
		m = max(m, v)
	}
	return m
}

// sum returns the total of one series.
func (l *layerSamples) sum(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	t := 0.0
	for _, v := range l.vals[name] {
		t += v
	}
	return t
}

// tracedChain runs order → filter → MCODE → score on the network g through
// the layer functions, one span per call, and records the layer counters.
func tracedChain(ctx context.Context, root spanRef, g *graph.Graph, seed int64, dag *ontology.DAG, ann *ontology.Annotations, ls *layerSamples) (chainCounts, error) {
	var ord []int32
	root.timed("graph.Order", func() { ord = graph.Order(g, chainOrdering, splitSeed(seed, seedPurposeOrder)) })

	var res *sampling.Result
	var filtered *graph.Graph
	var err error
	root.timed("sampling.RunContext", func() {
		res, err = sampling.RunContext(ctx, chainAlgorithm, g, sampling.Options{
			Order: ord, P: chainP, Seed: splitSeed(seed, seedPurposeSampler),
		})
		if err == nil {
			filtered = res.Graph(g.N())
		}
	})
	if err != nil {
		return chainCounts{}, fmt.Errorf("filter: %w", err)
	}

	params := mcode.DefaultParams()
	root.extra("mcode.VertexWeights", func() { mcode.VertexWeights(filtered) })
	var clusters []mcode.Cluster
	root.timed("mcode.FindClustersContext", func() { clusters, err = mcode.FindClustersContext(ctx, filtered, params) })
	if err != nil {
		return chainCounts{}, fmt.Errorf("mcode: %w", err)
	}
	root.timed("analysis.ScoreClustersContext", func() { _, err = analysis.ScoreClustersContext(ctx, dag, ann, filtered, clusters) })
	if err != nil {
		return chainCounts{}, fmt.Errorf("score: %w", err)
	}

	recordFilter(ls, res, g.M())
	ls.add("mcode.clusters", float64(len(clusters)))
	return chainCounts{filteredEdges: filtered.M(), clusters: len(clusters)}, nil
}

// recordFilter adds one sampling run's counters.
func recordFilter(ls *layerSamples, res *sampling.Result, inputEdges int) {
	st := &res.Stats
	if inputEdges > 0 {
		ls.add("sampling.kept_ratio", float64(res.Edges.Len())/float64(inputEdges))
	}
	maxOps := st.MaxRankOps()
	ls.add("sampling.rank_ops_max", float64(maxOps))
	if total := st.TotalOps(); total > 0 {
		ls.add("sampling.imbalance", float64(maxOps)*float64(len(st.RankOps))/float64(total))
	}
	ls.add("sampling.border_edges", float64(res.BorderEdges))
	ls.add("sampling.dup_border_edges", float64(res.DuplicateBorderEdges))
}

// chainLayerMetrics derives the span-timed metrics shared by the chain
// workloads.
func chainLayerMetrics(spans []span, ls *layerSamples) map[string]float64 {
	vals := ls.medians()
	for name, metricName := range map[string]string{
		"graph.ReadEdgeList":            "graph.parse_ms",
		"graph.Order":                   "graph.order_ms",
		"sampling.RunContext":           "sampling.filter_ms",
		"mcode.VertexWeights":           "mcode.weights_ms",
		"mcode.FindClustersContext":     "mcode.find_ms",
		"analysis.ScoreClustersContext": "analysis.score_ms",
		"expr.BuildNetworkContext":      "expr.sweep_ms",
	} {
		if xs := spanDurations(spans, name); len(xs) > 0 {
			vals[metricName] = median(xs)
		}
	}
	vals["mcode.grow_ms"] = vals["mcode.find_ms"] - vals["mcode.weights_ms"]
	return vals
}

// storeTally sums the artifact-store counters of many pipelines.
type storeTally struct {
	mu sync.Mutex
	st parsample.PipelineStats
}

func (t *storeTally) add(st parsample.PipelineStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st = storeSum(t.st, st, 1)
}

func (t *storeTally) total() parsample.PipelineStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.st
}

// storeSum returns a + sign·b over the counters storeMetrics reads.
func storeSum(a, b parsample.PipelineStats, sign int64) parsample.PipelineStats {
	a.Hits += sign * b.Hits
	a.Misses += sign * b.Misses
	a.Shared += sign * b.Shared
	a.Evictions += sign * b.Evictions
	a.SweepBatches += sign * b.SweepBatches
	a.SweepRequests += sign * b.SweepRequests
	a.DiskWrites += sign * b.DiskWrites
	a.WriteBehindErrors += sign * b.WriteBehindErrors
	return a
}

// storeMetrics sets the pipeline and diskstore counters from store stats
// gathered over a traced run.
func storeMetrics(vals map[string]float64, st parsample.PipelineStats) {
	hits, misses, shared := float64(st.Hits), float64(st.Misses), float64(st.Shared)
	vals["pipeline.hits"], vals["pipeline.misses"], vals["pipeline.shared"] = hits, misses, shared
	vals["pipeline.evictions"] = float64(st.Evictions)
	if all := hits + misses + shared; all > 0 {
		vals["pipeline.hit_ratio"] = hits / all
	}
	if st.SweepBatches > 0 {
		vals["pipeline.sweep_coalesce_ratio"] = float64(st.SweepRequests) / float64(st.SweepBatches)
	}
	vals["diskstore.writes"] = float64(st.DiskWrites)
	vals["diskstore.write_behind_errors"] = float64(st.WriteBehindErrors)
}
