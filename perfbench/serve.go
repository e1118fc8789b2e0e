package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"parsample"
	"parsample/api"
	"parsample/internal/datasets"
	"parsample/internal/ontology"
	"parsample/internal/server"
	"parsample/internal/snapshot"
)

// serve-mix request stream. No record of real requests exists to take the
// mix from, so every number below is an assumption that puts a figure on
// the workload's wording:
//
//   - "most requests repeat a small working set": 78% repeats of six
//     requests (two networks under three filters);
//   - "some are novel small synthesis requests": 15%, 256 to 768 genes;
//   - "a few are siblings of a recent novel request that differ only in
//     the correlation threshold": the remaining 7%, picked among the
//     serveRecent latest novel requests, at 0.85 or 0.9 instead of the
//     default 0.95. Half the novel requests are also followed at once by a
//     sibling, which the other client picks up while the first is in
//     flight, so the two sweeps can coalesce.
//
// The server runs as parsampled -cache-dir <dir> -cache-mb 32 would:
// default admission, the default 2 ms batch window, and a 32 MiB store.
// The store budget is the one departure from the defaults. A long-running
// daemon's store is full and evicting; at the default 256 MiB, a 25-second
// run leaves it 152 MB full with no eviction, so the run would measure a
// young daemon and peak_rss_mb would grow with throughput. 32 MiB fills in
// the first seconds of the run.
const (
	serveRepeatShare = 0.78
	serveNovelShare  = 0.15 // the rest are delayed siblings
	serveRecent      = 4    // siblings pick among this many latest novel requests
	serveCacheBytes  = 32 << 20
	serveBatchWindow = 2 * time.Millisecond
)

// Request kinds of the serve-mix stream.
const (
	kindRepeat = iota
	kindNovel
	kindSibling
)

// serveItem is one request of the stream.
type serveItem struct {
	kind  int
	req   *api.Request
	body  []byte
	ref   []byte // the expected body, for repeats
	genes int    // the expected vertex count, for synthesis requests
}

// serveStream hands out the seeded request sequence to both clients.
type serveStream struct {
	mu      sync.Mutex
	rng     *rand.Rand
	working []serveItem
	recent  []serveItem
	queued  []serveItem
}

func (s *serveStream) next() serveItem {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queued) > 0 {
		it := s.queued[0]
		s.queued = s.queued[1:]
		return it
	}
	r := s.rng.Float64()
	switch {
	case r < serveRepeatShare || len(s.recent) == 0 && r >= serveRepeatShare+serveNovelShare:
		return s.working[s.rng.Intn(len(s.working))]
	case r < serveRepeatShare+serveNovelShare:
		it := novelRequest(s.rng)
		s.recent = append(s.recent, it)
		if len(s.recent) > serveRecent {
			s.recent = s.recent[1:]
		}
		if s.rng.Intn(2) == 0 {
			s.queued = append(s.queued, siblingOf(it, s.rng))
		}
		return it
	default:
		return siblingOf(s.recent[s.rng.Intn(len(s.recent))], s.rng)
	}
}

// synthesisRequest is a synthesized-matrix request with the chain filter.
func synthesisRequest(genes, samples int, seed int64) *api.Request {
	return &api.Request{
		Network: api.NetworkSource{Synthesis: &api.SynthesisSpec{Genes: genes, Samples: samples, Seed: seed}},
		Filter:  api.FilterSpec{Algorithm: chainAlgorithm.String(), Ordering: chainOrdering.String(), P: chainP},
	}
}

func novelRequest(rng *rand.Rand) serveItem {
	genes := 256 + 64*rng.Intn(9)
	return item(kindNovel, synthesisRequest(genes, 24+rng.Intn(17), rng.Int63()), genes)
}

// siblingOf asks for the same data at another correlation threshold.
func siblingOf(parent serveItem, rng *rand.Rand) serveItem {
	req := *parent.req
	r := []float64{0.85, 0.9}[rng.Intn(2)]
	req.Network.Correlation = &api.CorrelationSpec{MinAbsR: &r}
	return item(kindSibling, &req, parent.genes)
}

func item(kind int, req *api.Request, genes int) serveItem {
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("marshal request: %v", err)) // plain data cannot fail
	}
	return serveItem{kind: kind, req: req, body: body, genes: genes}
}

// serveMix is the serve-mix workload: two closed-loop clients against one
// long-lived server.Server over a Pipeline with a disk cache directory.
type serveMix struct {
	p       *parsample.Pipeline
	probe   *parsample.Pipeline // rebuilds networks for the snapshot probe, outside p's store
	target  *httpTarget
	clients []*http.Client
	stream  *serveStream
	base    statszBody
	ls      layerSamples
}

func setupServe(ctx context.Context, seed int64, dir string) (instance, error) {
	rng := rand.New(rand.NewSource(seed))
	// The working set is two evaluation networks posted inline with their
	// ontologies, each under three filter variants: repeats of similar
	// size, so the median request is a hit of one kind. As on cre-chain,
	// the networks are the shipped ones and the seed permutes their
	// edge-list lines: set-up computes each of them twice, and MCODE's cost
	// on a per-seed network would make setup_s measure the seed.
	var working []serveItem
	for _, name := range []string{"YNG", "MID"} {
		spec, _ := datasets.SpecFor(name)
		ds := datasets.Build(spec)
		el := shuffledEdgeList(ds.G, seed)
		var dag, ann strings.Builder
		if err := ontology.WriteDAG(&dag, ds.DAG); err != nil {
			return nil, err
		}
		if err := ontology.WriteAnnotations(&ann, ds.Ann); err != nil {
			return nil, err
		}
		for _, f := range []api.FilterSpec{
			{Algorithm: chainAlgorithm.String(), Ordering: chainOrdering.String(), P: chainP},
			{Algorithm: "chordal-seq", Ordering: "NO"},
			{Algorithm: api.AlgorithmNone},
		} {
			working = append(working, item(kindRepeat, &api.Request{
				Network: api.NetworkSource{EdgeList: el},
				Filter:  f,
				Score:   api.ScoreSpec{DAG: dag.String(), Annotations: ann.String()},
			}, ds.G.N()))
		}
	}
	// Reference bodies come from the facade directly, not over HTTP.
	ref := parsample.New()
	for i := range working {
		resp, err := ref.Do(ctx, working[i].req)
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return nil, err
		}
		working[i].ref = append(b, '\n')
	}

	w := &serveMix{
		p: parsample.New(
			parsample.WithCacheDir(filepath.Join(dir, "cache")),
			parsample.WithCacheBytes(serveCacheBytes),
			parsample.WithBatchWindow(serveBatchWindow),
		),
		probe:   parsample.New(),
		clients: []*http.Client{newClient(), newClient()},
		stream:  &serveStream{rng: rng, working: working},
	}
	var err error
	w.target, err = startHTTP(server.New(server.Config{Pipeline: w.p}))
	if err != nil {
		w.p.Close()
		w.probe.Close()
		return nil, err
	}
	for _, it := range working {
		if _, err := w.send(ctx, 0, it); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	if w.base, err = w.statsz(ctx); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// send posts one stream item and checks the reply.
func (w *serveMix) send(ctx context.Context, c int, it serveItem) (time.Duration, error) {
	start := time.Now()
	r, err := post(ctx, w.clients[c], w.target.url+"/v1/pipeline", it.body, fmt.Sprint("client-", c))
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if err := checkServe(it, r.body); err != nil {
		return lat, err
	}
	serverSamples(&w.ls, r, lat)
	return lat, nil
}

// checkServe compares a repeat byte for byte with its reference; a novel
// or sibling response must describe the requested network and score every
// cluster it reports.
func checkServe(it serveItem, body []byte) error {
	if it.kind == kindRepeat {
		if !bytes.Equal(body, it.ref) {
			return errMismatch
		}
		return nil
	}
	var resp api.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if resp.Version != api.Version || resp.Network.Vertices != it.genes || resp.Filtered == nil ||
		len(resp.Scores) != len(resp.Clusters) {
		return fmt.Errorf("%w: %d vertices, %d clusters, %d scores", errMismatch, resp.Network.Vertices, len(resp.Clusters), len(resp.Scores))
	}
	return nil
}

func (w *serveMix) op(ctx context.Context, c int) (time.Duration, error) {
	return w.send(ctx, c, w.stream.next())
}

func (w *serveMix) traced(ctx context.Context, c int, root spanRef) error {
	it := w.stream.next()
	root.extra("api.Normalized", func() {
		if norm, err := it.req.Normalized(); err == nil {
			norm.Fingerprint()
		}
	})
	start := root.t.now()
	r, err := post(ctx, w.clients[c], w.target.url+"/v1/pipeline", it.body, fmt.Sprint("client-", c))
	end := root.t.now()
	if err != nil {
		return err
	}
	if err := checkServe(it, r.body); err != nil {
		return err
	}
	// The server reports the time its kernel stages spent computing; the
	// rest of the request is the server's. The kernel time belongs to no
	// layer this run times, so it is left out of the layer self times.
	req := root.t.record(root, "server.POST", start, end, false)
	compute := time.Duration(r.actual * float64(time.Millisecond))
	root.t.record(req, "kernels.compute", end-compute, end, false)

	if r.cache == "miss" && it.req.Network.Synthesis != nil {
		// What the write-behind pays for this request's largest artifact.
		// The network is rebuilt on the probe pipeline, so the server's
		// store counters see only the workload's requests.
		g, err := w.probe.NetworkFromSource(ctx, it.req.Network)
		if err != nil {
			return err
		}
		var blob []byte
		root.extra("snapshot.EncodeGraph", func() { blob = snapshot.EncodeGraph(g) })
		root.extra("snapshot.DecodeGraph", func() { _, err = snapshot.DecodeGraph(blob) })
		if err != nil {
			return err
		}
	}
	w.ls.add("diskstore.pending_max", float64(w.p.Stats().WriteBehindPending))
	return nil
}

// statszBody is the part of GET /statsz the benchmark reads.
type statszBody struct {
	Store     parsample.PipelineStats `json:"store"`
	Admission struct {
		Rejected map[string]int64 `json:"rejected"`
	} `json:"admission"`
}

func (w *serveMix) statsz(ctx context.Context) (statszBody, error) {
	var out statszBody
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.target.url+"/statsz", nil)
	if err != nil {
		return out, err
	}
	resp, err := w.clients[0].Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	return out, json.Unmarshal(b, &out)
}

func (w *serveMix) layerMetrics(spans []span) (map[string]float64, error) {
	vals := w.ls.medians()
	if xs := spanDurations(spans, "api.Normalized"); len(xs) > 0 {
		vals["api.normalize_us"] = 1000 * median(xs)
	}
	for name, metricName := range map[string]string{
		"snapshot.EncodeGraph": "snapshot.encode_ms",
		"snapshot.DecodeGraph": "snapshot.decode_ms",
	} {
		if xs := spanDurations(spans, name); len(xs) > 0 {
			vals[metricName] = median(xs)
		}
	}
	vals["diskstore.pending_max"] = w.ls.max("diskstore.pending_max")
	serverShares(vals, &w.ls)

	now, err := w.statsz(context.Background())
	if err != nil {
		return nil, fmt.Errorf("reading /statsz: %w", err)
	}
	storeMetrics(vals, storeSum(now.Store, w.base.Store, -1))
	var rejected int64
	for k, v := range now.Admission.Rejected {
		rejected += v - w.base.Admission.Rejected[k]
	}
	vals["server.rejected"] = float64(rejected)
	return vals, nil
}

func (w *serveMix) close() {
	w.target.close()
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.p.Close()
	w.probe.Close()
}
