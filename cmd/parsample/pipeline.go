package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"

	"parsample"
	"parsample/internal/expr"
	"parsample/internal/ontology"
)

// pipelineMain runs `parsample pipeline`: one end-to-end run on the engine
// with per-stage timings.
func pipelineMain(args []string) {
	fs := flag.NewFlagSet("parsample pipeline", flag.ExitOnError)
	var (
		inPath    = fs.String("in", "", "input edge list (default stdin unless -synth)")
		synth     = fs.String("synth", "", "synthesize a GENESxSAMPLES expression matrix (e.g. 2048x64) instead of reading a network")
		modules   = fs.Int("modules", 16, "planted co-expression modules (-synth)")
		modSize   = fs.Int("modsize", 12, "genes per planted module (-synth)")
		noise     = fs.Float64("noise", 0.1, "within-module noise std-dev (-synth)")
		algName   = fs.String("alg", "chordal-nocomm", "algorithm: chordal-seq | chordal-comm | chordal-nocomm | randomwalk-seq | randomwalk-par | forestfire-seq | forestfire-par")
		orderName = fs.String("order", "NO", "vertex ordering: NO | HD | LD | RCM | RAND")
		p         = fs.Int("p", 1, "number of simulated processors")
		seed      = fs.Int64("seed", 1, "random seed")
		outPath   = fs.String("out", "", "write the filtered edge list here")
		top       = fs.Int("top", 5, "clusters to print")
	)
	fs.Parse(args)

	alg, ok := parsample.ParseAlgorithm(*algName)
	if !ok {
		fatalf("unknown algorithm %q", *algName)
	}
	ord, ok := parsample.ParseOrdering(*orderName)
	if !ok {
		fatalf("unknown ordering %q", *orderName)
	}

	in := parsample.PipelineInput{
		Filter: parsample.FilterOptions{Algorithm: alg, Ordering: ord, P: *p, Seed: *seed},
	}
	switch {
	case *synth != "":
		var genes, samples int
		if _, err := fmt.Sscanf(*synth, "%dx%d", &genes, &samples); err != nil {
			fatalf("bad -synth %q (want GENESxSAMPLES, e.g. 2048x64)", *synth)
		}
		syn, err := expr.Synthesize(expr.SyntheticSpec{
			Genes: genes, Samples: samples,
			Modules: *modules, ModuleSize: *modSize, Noise: *noise, Seed: *seed,
		})
		if err != nil {
			fatalf("synthesize: %v", err)
		}
		// A matching ontology over the planted modules, so the scoring stage
		// has ground truth to work against (mirrors internal/datasets).
		dag := ontology.Generate(ontology.GenerateSpec{Depth: 10, Branch: 3, Seed: *seed + 1})
		ann := ontology.AnnotateModules(dag, genes, syn.Modules, 6, *seed+2)
		in.Name = fmt.Sprintf("synth:%s:m%d:s%d:n%g:seed%d", *synth, *modules, *modSize, *noise, *seed)
		in.Matrix = syn.M
		in.Network = parsample.DefaultNetworkOptions()
		in.DAG = dag
		in.Ann = ann
	default:
		r := os.Stdin
		name := "stdin"
		if *inPath != "" {
			f, err := os.Open(*inPath)
			if err != nil {
				fatalf("open input: %v", err)
			}
			defer f.Close()
			r = f
			name = *inPath
		}
		g, err := parsample.ReadNetwork(r)
		if err != nil {
			fatalf("read network: %v", err)
		}
		in.Name = name
		in.Graph = g
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := parsample.New().Run(ctx, in)
	if err != nil {
		fatalf("pipeline: %v", err)
	}

	fmt.Printf("network:   %d vertices, %d edges\n", res.Network.N(), res.Network.M())
	fmt.Printf("filtered:  %d edges (%.1f%%) via %s/%s P=%d\n",
		res.Filtered.M(), 100*float64(res.Filtered.M())/float64(max(1, res.Network.M())),
		*algName, *orderName, *p)
	fmt.Printf("clusters:  %d\n", len(res.Clusters))
	if res.Scored != nil {
		scored := append([]parsample.ScoredCluster(nil), res.Scored...)
		sort.SliceStable(scored, func(i, j int) bool { return scored[i].Score.AEES > scored[j].Score.AEES })
		for i, sc := range scored {
			if i >= *top {
				break
			}
			fmt.Printf("  cluster %2d: %3d vertices, %4d edges, MCODE %.2f, AEES %.2f\n",
				sc.Cluster.ID, len(sc.Cluster.Vertices), sc.Cluster.Edges, sc.Cluster.Score, sc.Score.AEES)
		}
	} else {
		for i, c := range res.Clusters {
			if i >= *top {
				break
			}
			fmt.Printf("  cluster %2d: %3d vertices, %4d edges, MCODE %.2f\n",
				c.ID, len(c.Vertices), c.Edges, c.Score)
		}
	}

	fmt.Println("stage timings:")
	for _, t := range res.Timings {
		fmt.Printf("  %-8s %-28s %-9s %10.3fms\n",
			t.Stage, t.Variant, t.Source, float64(t.Duration.Microseconds())/1000)
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatalf("create output: %v", err)
		}
		defer f.Close()
		if err := parsample.WriteNetwork(f, res.Filtered); err != nil {
			fatalf("write network: %v", err)
		}
	}
}
