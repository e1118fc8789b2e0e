package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the program reads: the order in
// which metrics are printed, the per-layer metrics with their units, and
// the bounds the report applies.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

func loadSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runSet is the end-to-end values of a set of runs: workload → metric →
// one value per run.
type runSet map[string]map[string][]float64

// report compares two directories of run outputs (the standard output of
// each run, one file per run) and states whether they agree within the
// bounds of BENCHMARK.json. It returns an error when they do not.
func report(w io.Writer, spec benchSpec, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: report <runs-A> <runs-B>")
	}
	a, err := loadRuns(args[0])
	if err != nil {
		return err
	}
	bs, err := loadRuns(args[1])
	if err != nil {
		return err
	}
	if ok := compareSets(w, spec, a, bs); !ok {
		return fmt.Errorf("the two sets do not agree within the bounds")
	}
	return nil
}

// loadRuns reads every file of dir as one run's output: its environment
// line names the workload, its last line holds the metrics.
func loadRuns(dir string) (runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for _, f := range files {
		wl, metrics, err := parseRun(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if set[wl] == nil {
			set[wl] = map[string][]float64{}
		}
		for k, m := range metrics {
			set[wl][k] = append(set[wl][k], m.Value)
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s holds no runs", dir)
	}
	return set, nil
}

func parseRun(path string) (string, map[string]metric, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", nil, err
	}
	defer f.Close()
	var workload, last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var env struct {
			Env struct {
				Workload string `json:"workload"`
			} `json:"env"`
		}
		if strings.HasPrefix(line, `{"env"`) && json.Unmarshal([]byte(line), &env) == nil {
			workload = env.Env.Workload
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return "", nil, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil || workload == "" {
		return "", nil, fmt.Errorf("not a benchmark run output")
	}
	if !res.Correct {
		return "", nil, fmt.Errorf("the run failed its correctness checks")
	}
	return workload, res.Metrics, nil
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) (med, q1, q3, rel float64) {
	med = median(xs)
	if len(xs) < 2 {
		return med, med, med, 0
	}
	q := quartiles(xs)
	return med, q[0], q[2], (q[2] - q[0]) / med
}

// compareSets prints each metric's median and quartiles per workload for
// both sets and reports whether they agree: every spread, setup_s's too,
// within its bound, and the second median within the bound of the first
// in either direction, so the verdict does not depend on which set is A.
func compareSets(w io.Writer, spec benchSpec, a, b runSet) bool {
	ok := true
	workloads := make([]string, 0, len(a))
	for wl := range a {
		workloads = append(workloads, wl)
	}
	for wl := range b {
		if a[wl] == nil {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-14s %-15s %5s %12s %12s %12s %7s %12s %7s %8s  %s\n",
		"workload", "metric", "bound", "A median", "A q1", "A q3", "A iqr", "B median", "B iqr", "B worse", "verdict")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a[wl][m.Name], b[wl][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(w, "%-14s %-15s missing from one set\n", wl, m.Name)
				ok = false
				continue
			}
			ma, q1, q3, ra := spread(xa)
			mb, _, _, rb := spread(xb)
			worse := (mb - ma) / ma // positive: B is worse than A
			if m.Better == "higher" {
				worse = -worse
			}
			var why []string
			if ra > m.Bound || rb > m.Bound {
				why = append(why, "spread over bound")
			}
			switch {
			case worse > m.Bound:
				why = append(why, "B worse by more than bound")
			case -worse > m.Bound:
				why = append(why, "B better by more than bound")
			}
			verdict := "agree"
			if len(why) > 0 {
				verdict = strings.Join(why, ", ")
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-15s %5.2f %12.4f %12.4f %12.4f %7.4f %12.4f %7.4f %+8.4f  %s\n",
				wl, m.Name, m.Bound, ma, q1, q3, ra, mb, rb, worse, verdict)
		}
	}
	return ok
}
