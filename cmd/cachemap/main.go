// Command cachemap maps one of the paper's application models onto a
// storage cache hierarchy with a chosen scheme and reports the simulated
// cache and latency metrics.
//
// Usage:
//
//	cachemap -app apsi -scheme inter
//	cachemap -app madbench2 -scheme inter-sched -clients 128 -io 32 -storage 16
//	cachemap -app sar -compare            # all four schemes side by side
//	cachemap -list                        # available applications
package main

import (
	"context"

	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"repro/internal/codegen"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

func main() {
	app := flag.String("app", "apsi", "application model (see -list)")
	schemeName := flag.String("scheme", "inter", "mapping scheme: original, intra, inter, inter-sched")
	clients := flag.Int("clients", 64, "number of client (compute) nodes")
	ioNodes := flag.Int("io", 32, "number of I/O nodes")
	storage := flag.Int("storage", 16, "number of storage nodes")
	l1 := flag.Int("l1", 4, "client cache capacity (chunks)")
	l2 := flag.Int("l2", 8, "I/O node cache capacity (chunks)")
	l3 := flag.Int("l3", 16, "storage node cache capacity (chunks)")
	chunkKB := flag.Int64("chunk", 4, "data chunk size in KB")
	scale := flag.Int("scale", 1, "workload scale divisor")
	thresh := flag.Float64("balance", 0.10, "load balance threshold")
	topo := flag.String("topo", "", "layered topology spec, e.g. 16/32/64@16,8,4 (overrides -clients/-io/-storage/-l*)")
	compare := flag.Bool("compare", false, "run all four schemes and compare")
	verbose := flag.Bool("v", false, "print the planner pipeline's per-stage timing breakdown")
	list := flag.Bool("list", false, "list available applications")
	emit := flag.Int("emit", -1, "emit the generated per-client loop code for this client (inter scheme)")
	flag.Parse()

	if *list {
		for _, n := range workloads.Names() {
			w, _ := workloads.Get(n, 1)
			fmt.Printf("%-10s %s\n", n, w.Desc)
		}
		return
	}

	cfg := experiments.DefaultConfig()
	cfg.Clients, cfg.IONodes, cfg.StorageNodes = *clients, *ioNodes, *storage
	cfg.CacheL1, cfg.CacheL2, cfg.CacheL3 = *l1, *l2, *l3
	cfg.ChunkBytes = *chunkKB * 1024
	cfg.Scale = *scale
	cfg.BalanceThreshold = *thresh
	if *topo != "" {
		tr, err := hierarchy.Parse(*topo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		topoConfig(&cfg, tr)
	}

	w, err := workloads.Get(*app, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %s\n", w.Name, w.Desc)
	fmt.Printf("iterations=%d data=%d chunks of %d KB, topology (%d,%d,%d), caches (%d,%d,%d) chunks/node\n\n",
		w.Prog.Nest.Size(), w.Prog.Data.Rescale(cfg.ChunkBytes).NumChunks(), *chunkKB,
		cfg.Clients, cfg.IONodes, cfg.StorageNodes, cfg.CacheL1, cfg.CacheL2, cfg.CacheL3)

	schemes := []pipeline.Scheme{}
	if *compare {
		schemes = pipeline.Schemes()
	} else {
		s, err := pipeline.ParseScheme(*schemeName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		schemes = append(schemes, s)
	}

	if *emit >= 0 {
		tree := cfg.Tree()
		res, err := pipeline.Map(context.Background(), pipeline.InterProcessor, w.Prog, pipeline.Config{Tree: tree})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *emit >= len(res.PerClient) {
			fmt.Fprintf(os.Stderr, "client %d out of range [0,%d)\n", *emit, len(res.PerClient))
			os.Exit(1)
		}
		fmt.Printf("// generated schedule for client %d under the inter-processor mapping\n", *emit)
		fmt.Print(codegen.RenderChunks(w.Prog.Nest, res.PerClient[*emit]))
		return
	}

	stageRows := make(map[pipeline.Scheme][]pipeline.StageTiming)
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tL1 miss\tL2 miss\tL3 miss\tI/O (ms)\texec (ms)\tdisk reads\twritebacks")
	for _, s := range schemes {
		m, stages, err := cfg.RunDetailed(w, s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		stageRows[s] = stages
		fmt.Fprintf(tw, "%s\t%.1f%%\t%.1f%%\t%.1f%%\t%.0f\t%.0f\t%d\t%d\n",
			s, m.MissRateL(1)*100, m.MissRateL(2)*100, m.MissRateL(3)*100,
			m.IOLatencyMS(), m.ExecTimeMS(), m.DiskReads, m.DiskWritebacks)
	}
	tw.Flush()

	if *verbose {
		fmt.Println("\nplanner pipeline stage timings:")
		stw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(stw, "scheme\tstage\tduration (ms)\talloc (KB)")
		for _, s := range schemes {
			for _, st := range stageRows[s] {
				fmt.Fprintf(stw, "%s\t%s\t%.3f\t%d\n", s, st.Stage, st.DurationMS, st.AllocBytes/1024)
			}
		}
		stw.Flush()
	}
}

// topoConfig sets cfg's client, I/O and storage layers from a parsed
// topology, walking up from client 0: a lone storage node is the tree's
// root, and the cache-less dummy root above a two-layer spec's I/O nodes
// stands in for its storage layer. A layer the tree lacks becomes one
// cache-less node, which rebuilds the same tree.
func topoConfig(cfg *experiments.Config, tr *hierarchy.Tree) {
	counts, caps := [3]int{1, 1, 1}, [3]int{}
	n := tr.Client(0)
	for i := 0; i < 3 && n != nil; i, n = i+1, n.Parent {
		counts[i], caps[i] = 0, n.CacheChunks
		for _, m := range tr.Nodes() {
			if m.Level == n.Level {
				counts[i]++
			}
		}
	}
	cfg.Clients, cfg.IONodes, cfg.StorageNodes = counts[0], counts[1], counts[2]
	cfg.CacheL1, cfg.CacheL2, cfg.CacheL3 = caps[0], caps[1], caps[2]
}
