package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"parsample"
	"parsample/api"
	"parsample/internal/datasets"
	"parsample/internal/graph"
	"parsample/internal/ontology"
	"parsample/internal/server"
)

// creChain is the cre-chain workload: a CRE-shaped network posted inline
// with its ontology, filtered chordal-nocomm HD P=2, clustered and scored.
// Every operation runs on a fresh Pipeline behind a fresh server.Server,
// so nothing of it is resident; the listener and connection persist.
type creChain struct {
	target  *httpTarget
	handler atomic.Pointer[server.Server]
	client  *http.Client

	req  *api.Request
	body []byte
	ref  []byte // the response body computed in setup
	want chainCounts

	seed     int64
	edgeList string
	dag      *ontology.DAG
	ann      *ontology.Annotations
	ls       layerSamples
	store    storeTally
}

func setupCRE(ctx context.Context, seed int64, _ string) (instance, error) {
	// The network is the CRE evaluation network itself, built from its own
	// spec; the workload seed permutes the edge-list lines. MCODE's cost on
	// the filtered network swings from 0.2 s to 1.0 s across dataset seeds,
	// so a per-seed network would measure the seed, not the program.
	spec, _ := datasets.SpecFor("CRE")
	ds := datasets.Build(spec)
	var dag, ann strings.Builder
	if err := ontology.WriteDAG(&dag, ds.DAG); err != nil {
		return nil, err
	}
	if err := ontology.WriteAnnotations(&ann, ds.Ann); err != nil {
		return nil, err
	}
	w := &creChain{seed: seed, edgeList: shuffledEdgeList(ds.G, seed), dag: ds.DAG, ann: ds.Ann, client: newClient()}
	w.req = &api.Request{
		Network: api.NetworkSource{EdgeList: w.edgeList},
		Filter:  api.FilterSpec{Algorithm: chainAlgorithm.String(), Ordering: chainOrdering.String(), P: chainP, Seed: seed},
		Score:   api.ScoreSpec{DAG: dag.String(), Annotations: ann.String()},
	}
	var err error
	if w.body, err = json.Marshal(w.req); err != nil {
		return nil, err
	}

	// The reference answer comes from the facade directly, not over HTTP.
	resp, err := parsample.New().Do(ctx, w.req)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if w.ref, err = json.Marshal(resp); err != nil {
		return nil, err
	}
	w.ref = append(w.ref, '\n')
	w.want = chainCounts{filteredEdges: resp.Filtered.Edges, clusters: len(resp.Clusters)}

	w.target, err = startHTTP(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		w.handler.Load().ServeHTTP(rw, r)
	}))
	if err != nil {
		return nil, err
	}
	if _, err := w.op(ctx, 0); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// shuffledEdgeList writes g in the edge-list format with its lines in a
// seeded order and each edge's endpoints in a seeded orientation. It parses
// back to the same graph.
func shuffledEdgeList(g *graph.Graph, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	var b strings.Builder
	fmt.Fprintf(&b, "# %d %d\n", g.N(), g.M())
	for _, e := range edges {
		if rng.Intn(2) == 0 {
			e.U, e.V = e.V, e.U
		}
		fmt.Fprintf(&b, "%d %d\n", e.U, e.V)
	}
	return b.String()
}

func (w *creChain) op(ctx context.Context, _ int) (time.Duration, error) {
	p := parsample.New()
	defer p.Close()
	w.handler.Store(server.New(server.Config{Pipeline: p}))
	start := time.Now()
	r, err := post(ctx, w.client, w.target.url+"/v1/pipeline", w.body, "")
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if !bytes.Equal(r.body, w.ref) {
		return lat, errMismatch
	}
	serverSamples(&w.ls, r, lat)
	w.store.add(p.Stats())
	return lat, nil
}

func (w *creChain) traced(ctx context.Context, _ int, root spanRef) error {
	root.timed("api.Normalized", func() {
		if norm, err := w.req.Normalized(); err == nil {
			norm.Fingerprint()
		}
	})
	var g *graph.Graph
	var err error
	root.timed("graph.ReadEdgeList", func() { g, err = graph.ReadEdgeList(strings.NewReader(w.edgeList)) })
	if err != nil {
		return err
	}
	got, err := tracedChain(ctx, root, g, w.seed, w.dag, w.ann, &w.ls)
	if err != nil {
		return err
	}
	if got != w.want {
		return fmt.Errorf("traced chain gave %+v, the response %+v", got, w.want)
	}
	return nil
}

func (w *creChain) layerMetrics(spans []span) (map[string]float64, error) {
	vals := chainLayerMetrics(spans, &w.ls)
	if xs := spanDurations(spans, "api.Normalized"); len(xs) > 0 {
		vals["api.normalize_us"] = 1000 * median(xs)
	}
	serverShares(vals, &w.ls)
	storeMetrics(vals, w.store.total())
	return vals, nil
}

func (w *creChain) close() {
	w.target.close()
	w.client.CloseIdleConnections()
}
