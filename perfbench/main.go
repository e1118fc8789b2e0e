// Command perfbench is the repository benchmark: it drives one seeded
// workload through the program's public entry points for a fixed time,
// checks every output, and prints the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run). See README.md for the workloads and
// what each metric should move.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cre-chain --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh report <dirA> <dirB>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The process exits non-zero when
// any correctness check failed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"parsample/internal/expr"
)

// endToEnd lists the metrics an untraced run fills.
var endToEnd = []string{"ops_per_s", "latency_ms_p50", "latency_ms_p90", "cpu_ms_per_op", "setup_s", "peak_rss_mb"}

// benchJSON is the benchmark definition, relative to the repository root
// the benchmark runs from.
const benchJSON = "BENCHMARK.json"

// workDir holds the benchmark's scratch files and written traces; run.sh
// builds into it too.
const workDir = ".bench_build"

// setupReps is how many times an untraced run sets its workload up; the
// reported setup_s is the median.
const setupReps = 3

// instance is one set-up workload.
type instance interface {
	// op runs one untraced operation for client c and returns its latency,
	// which excludes the correctness check. A non-nil error is a failed
	// operation: a transport error, a non-200 status or a failed check.
	op(ctx context.Context, c int) (time.Duration, error)
	// traced recomputes one operation through the layer functions,
	// recording a span around each call under root.
	traced(ctx context.Context, c int, root spanRef) error
	// layerMetrics derives the workload's per-layer metrics from the
	// spans and counters of a traced run.
	layerMetrics(spans []span) (map[string]float64, error)
	// close releases everything the instance started and waits for it.
	close()
}

// workload is one named load shape.
type workload struct {
	name    string
	clients int
	setup   func(ctx context.Context, seed int64, dir string) (instance, error)
}

var workloads = []workload{
	{name: "cre-chain", clients: 1, setup: setupCRE},
	{name: "overlap-sweep", clients: 1, setup: setupSweep},
	{name: "serve-mix", clients: 2, setup: setupServe},
	{name: "dist-tcp", clients: 1, setup: setupDist},
}

func main() {
	spec, err := loadSpec(benchJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(os.Args) > 1 && os.Args[1] == "report" {
		if err := report(os.Stdout, spec, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench report:", err)
			os.Exit(2)
		}
		return
	}
	name := flag.String("workload", "", "workload name: cre-chain, overlap-sweep, serve-mix or dist-tcp")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := runWorkload(context.Background(), spec, wl, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout, spec)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	env      map[string]any
	samples  map[string]int
	marked   []string
	failures []string
}

// runWorkload sets wl up and measures it for d.
func runWorkload(ctx context.Context, spec benchSpec, wl *workload, seed int64, d time.Duration, traced bool) (*result, error) {
	runDir := filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	reps := setupReps
	if traced {
		reps = 1
	}
	var inst instance
	var setupS []float64
	for r := 0; r < reps; r++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		dir := filepath.Join(runDir, fmt.Sprint("setup-", r))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		// Each set-up starts from a collected heap, not from the garbage
		// of the one before.
		runtime.GC()
		start := time.Now()
		var err error
		if inst, err = wl.setup(ctx, seed, dir); err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer inst.close()

	res := &result{Correct: true, Metrics: map[string]metric{}, samples: map[string]int{}}
	res.env = environment(wl, seed, d, traced)
	if traced {
		return res, measureTraced(ctx, spec, wl, inst, d, res, filepath.Join(workDir, fmt.Sprintf("trace-%s-seed%d.json", wl.name, seed)))
	}
	measureEndToEnd(ctx, wl, inst, d, res)
	res.Metrics["setup_s"] = metric{median(setupS), "s"}
	res.env["setup_s_each"] = setupS
	res.samples["setup_s"] = len(setupS)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MB"}
		res.samples["peak_rss_mb"] = 1
	}
	return res, nil
}

// sample is one finished operation.
type sample struct {
	lat    time.Duration
	traced bool
	err    error
}

// loop runs clients closed-loop callers for d. Each caller sends its next
// operation only after the previous one returned. With a tracer, each
// caller alternates untraced and traced operations.
func loop(ctx context.Context, inst instance, clients int, d time.Duration, tr *tracer) []sample {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				var s sample
				if tr != nil && i%2 == 1 {
					start := time.Now()
					s.err = inst.traced(ctx, c, tr.op())
					s.lat, s.traced = time.Since(start), true
				} else {
					s.lat, s.err = inst.op(ctx, c)
				}
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// tally counts attempts and failures into res and returns the latencies
// (ms) of the successful operations of the given kind.
func tally(samples []sample, traced bool, res *result) []float64 {
	var lats []float64
	for _, s := range samples {
		if s.traced != traced {
			continue
		}
		res.Attempted++
		if s.err != nil {
			res.Failed++
			if len(res.failures) < 5 {
				res.failures = append(res.failures, s.err.Error())
			}
			continue
		}
		lats = append(lats, ms(s.lat.Seconds()))
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return lats
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// measureEndToEnd runs the untraced loop and fills the end-to-end metrics.
func measureEndToEnd(ctx context.Context, wl *workload, inst instance, d time.Duration, res *result) {
	runtime.GC()
	cpu0, t0 := cpuSeconds(), time.Now()
	samples := loop(ctx, inst, wl.clients, d, nil)
	elapsed, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
	lats := tally(samples, false, res)
	done := float64(len(lats))

	p50, p90 := percentile(lats, 50), percentile(lats, 90)
	res.Metrics["ops_per_s"] = metric{done / elapsed, "1/s"}
	res.Metrics["latency_ms_p50"] = metric{p50.Value, "ms"}
	res.Metrics["latency_ms_p90"] = metric{p90.Value, "ms"}
	res.Metrics["cpu_ms_per_op"] = metric{ms(cpu) / max(done, 1), "ms"}
	for _, k := range []string{"ops_per_s", "cpu_ms_per_op"} {
		res.samples[k] = res.Attempted
	}
	res.samples["latency_ms_p50"], res.samples["latency_ms_p90"] = p50.Samples, p90.Samples
	res.markIf("latency_ms_p50", p50)
	res.markIf("latency_ms_p90", p90)
}

// measureTraced interleaves untraced and traced operations and fills the
// per-layer metrics named in spec; spans are written to tracePath at the
// end.
func measureTraced(ctx context.Context, spec benchSpec, wl *workload, inst instance, d time.Duration, res *result, tracePath string) error {
	tr := newTracer()
	samples := loop(ctx, inst, wl.clients, d, tr)
	plain := tally(samples, false, res)
	tracedLats := tally(samples, true, res)
	spans := tr.snapshot()
	if err := tr.write(tracePath); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}

	vals, err := inst.layerMetrics(spans)
	if err != nil {
		return err
	}
	// Self time per layer: the median over traced operations of the time
	// each layer's calls spent outside their children.
	perOp := opLayerSelf(spans)
	var layerSum float64
	for _, l := range selfLayers {
		var xs []float64
		for _, m := range perOp {
			xs = append(xs, ms(m[l].Seconds()))
		}
		v := 0.0
		if len(xs) > 0 {
			v = median(xs)
		}
		vals[l+".self_ms"] = v
		layerSum += v
	}
	untraced := median(plain)
	vals["other_ms"] = untraced - layerSum
	vals["trace_overhead_ms"] = median(tracedLats) - untraced
	res.samples["untraced_ops"] = len(plain)

	for _, m := range spec.PerLayer {
		v, ok := vals[m.Name]
		if !ok || v != v { // absent on this workload, or no samples
			v = 0
		}
		res.Metrics[m.Name] = metric{v, m.Unit}
		res.samples[m.Name] = len(tracedLats)
		delete(vals, m.Name)
	}
	if len(vals) > 0 {
		return fmt.Errorf("per-layer metrics missing from %s: %v", benchJSON, sortedKeys(vals))
	}
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// markIf records a percentile with too few samples beyond it.
func (r *result) markIf(name string, q quantile) {
	if q.Marked() {
		r.marked = append(r.marked, fmt.Sprintf("%s (%d samples, %d beyond; needs %d)", name, q.Samples, q.Beyond, minBeyond))
	}
}

// environment records what the numbers were measured on.
func environment(wl *workload, seed int64, d time.Duration, traced bool) map[string]any {
	return map[string]any{
		"workload":   wl.name,
		"seed":       seed,
		"seconds":    d.Seconds(),
		"traced":     traced,
		"clients":    wl.clients,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go":         runtime.Version(),
		"kernel_isa": expr.KernelISA(),
	}
}

// cpuModel reads the processor name; empty where /proc is not available.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// print writes the human-readable table in the order of spec, the
// environment line, and the result object as the last line.
func (r *result) print(w io.Writer, spec benchSpec) {
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if v, ok := r.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "%-32s %18.4f %-6s (n=%d)\n", m.Name, v.Value, v.Unit, r.samples[m.Name])
		}
	}
	// fail_ratio is printed here but left out of the result object, which
	// carries it as failed/attempted.
	fmt.Fprintf(w, "%-32s %18.4f %-6s (n=%d)\n", "fail_ratio", float64(r.Failed)/float64(max(r.Attempted, 1)), "ratio", r.Attempted)
	for _, m := range r.marked {
		fmt.Fprintln(w, "marked, too few samples beyond:", m)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "failed:", f)
	}
	env, _ := json.Marshal(map[string]any{"env": r.env, "samples": r.samples, "marked": r.marked})
	fmt.Fprintln(w, string(env))
	for k, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// Only a run with no successful operation has no value, and
			// such a run has already failed; JSON cannot carry NaN.
			r.Metrics[k] = metric{0, m.Unit}
		}
	}
	b, _ := json.Marshal(r)
	fmt.Fprintln(w, string(b))
}
