package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"parsample/internal/graph"
	"parsample/internal/sampling"
	"parsample/internal/transport"
)

// dist-tcp input: an RMAT graph of scale 14 and edge factor 8, filtered
// chordal-comm HD on two ranks.
const (
	distScale      = 14
	distEdgeFactor = 8
	distP          = 2
	distAlgorithm  = sampling.ChordalComm
)

// distTCP is the dist-tcp workload: one transport.Cluster.Run job per
// operation, with one in-process loopback worker as rank 1.
type distTCP struct {
	job    transport.Job
	want   []uint64 // the mpisim result's sorted edge keys
	cl     *transport.Cluster
	worker *transport.Worker
	cancel context.CancelFunc
	served chan error
	ls     layerSamples
}

func setupDist(ctx context.Context, seed int64, _ string) (instance, error) {
	g := graph.RMAT(distScale, distEdgeFactor, 0, 0, 0, seed)
	job := transport.Job{
		Alg: distAlgorithm, Graph: g, P: distP, Seed: seed,
		Order: graph.Order(g, graph.HighDegree, seed),
	}
	sim, err := sampling.RunContext(ctx, job.Alg, g, sampling.Options{Order: job.Order, P: job.P, Seed: job.Seed})
	if err != nil {
		return nil, fmt.Errorf("mpisim reference: %w", err)
	}
	w := &distTCP{job: job, want: edgeKeys(sim.Edges), served: make(chan error, 1)}
	if w.worker, err = transport.NewWorker("127.0.0.1:0"); err != nil {
		return nil, err
	}
	wctx, cancel := context.WithCancel(context.Background())
	w.cancel = cancel
	go func() { w.served <- w.worker.Serve(wctx) }()
	if w.cl, err = transport.Dial("127.0.0.1:0", []string{w.worker.Addr()}); err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.op(ctx, 0); err != nil {
		w.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// edgeKeys lists an edge set's keys in ascending order.
func edgeKeys(v graph.EdgeView) []uint64 {
	keys := make([]uint64, 0, v.Len())
	v.ForEach(func(a, b int32) { keys = append(keys, graph.EdgeKey(a, b)) })
	slices.Sort(keys)
	return keys
}

// sameEdges reports whether v holds exactly the edges of keys.
func sameEdges(v graph.EdgeView, keys []uint64) bool {
	if v.Len() != len(keys) {
		return false
	}
	for _, k := range keys {
		e := graph.KeyEdge(k)
		if !v.Has(e.U, e.V) {
			return false
		}
	}
	return true
}

// run executes one job and checks its merged edge set.
func (w *distTCP) run(ctx context.Context) (*sampling.Result, time.Duration, error) {
	start := time.Now()
	res, err := w.cl.Run(ctx, w.job)
	lat := time.Since(start)
	if err != nil {
		return nil, lat, err
	}
	if !sameEdges(res.Edges, w.want) {
		return nil, lat, errMismatch
	}
	return res, lat, nil
}

func (w *distTCP) op(ctx context.Context, _ int) (time.Duration, error) {
	_, lat, err := w.run(ctx)
	return lat, err
}

func (w *distTCP) traced(ctx context.Context, _ int, root spanRef) error {
	start := root.t.now()
	res, lat, err := w.run(ctx)
	if err != nil {
		return err
	}
	// The job span covers the client call; the kernel is the wall clock
	// the coordinator rank measured around the sampling run, recorded as
	// a child at the end of the job (shard shipping and mesh setup come
	// first), so the job's self time is its untimed setup.
	end := start + lat
	job := root.t.record(root, "transport.Cluster.Run", start, end, false)
	kernel := time.Duration(res.Stats.WallSeconds * float64(time.Second))
	root.t.record(job, "sampling.kernel", end-kernel, end, false)

	st := &res.Stats
	recordFilter(&w.ls, res, w.job.Graph.M())
	w.ls.add("transport.kernel_ms", ms(st.WallSeconds))
	w.ls.add("transport.setup_ms", ms(lat.Seconds()-st.WallSeconds))
	if len(st.RankWallSeconds) > 0 {
		w.ls.add("transport.rank_wall_spread_ms", ms(slices.Max(st.RankWallSeconds)-slices.Min(st.RankWallSeconds)))
	}
	w.ls.add("comm.messages", float64(st.Messages))
	w.ls.add("comm.bytes", float64(st.Bytes))
	w.ls.add("comm.coll_messages", float64(st.CollMessages))
	w.ls.add("comm.coll_bytes", float64(st.CollBytes))
	return nil
}

func (w *distTCP) layerMetrics(spans []span) (map[string]float64, error) {
	vals := w.ls.medians()
	if xs := spanDurations(spans, "transport.Cluster.Run"); len(xs) > 0 {
		vals["transport.job_ms"] = median(xs)
	}
	vals["sampling.filter_ms"] = vals["transport.kernel_ms"]
	return vals, nil
}

func (w *distTCP) close() {
	if w.cl != nil {
		w.cl.Close()
	}
	w.worker.Close()
	w.cancel()
	<-w.served
}
