// Command topoviz visualizes a mapping: the storage cache hierarchy tree,
// which client owns which slice of the iteration space, and how much data
// the clients under each shared cache have in common — the quantity the
// paper's algorithm maximizes.
//
// Usage:
//
//	topoviz -app apsi
//	topoviz -app madbench2 -scheme original -width 96
package main

import (
	"context"

	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/bitvec"
	"repro/internal/experiments"
	"repro/internal/pipeline"
	"repro/internal/workloads"
)

func main() {
	app := flag.String("app", "apsi", "application model")
	schemeName := flag.String("scheme", "inter", "mapping scheme")
	width := flag.Int("width", 80, "width of the iteration-space strip in characters")
	scale := flag.Int("scale", 1, "workload scale divisor")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	w, err := workloads.Get(*app, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	scheme, err := pipeline.ParseScheme(*schemeName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	tree := cfg.Tree()
	res, err := pipeline.Map(context.Background(), scheme, w.Prog, pipeline.Config{Tree: tree})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%s under %s on (%d clients)\n\n", w.Name, scheme, tree.NumClients())

	// Iteration-space strip: each column is a slice of the lexicographic
	// iteration order, coloured by owning client (letters cycle a-z, A-Z).
	total := w.Prog.Nest.BoxSize()
	owner := make([]int, *width)
	for i := range owner {
		owner[i] = -1
	}
	perCol := float64(total) / float64(*width)
	for ci, blocks := range res.Assignment {
		for _, b := range blocks {
			mark := func(idx int64) {
				col := int(float64(idx) / perCol)
				if col >= *width {
					col = *width - 1
				}
				if owner[col] < 0 {
					owner[col] = ci
				}
			}
			if b.Explicit != nil {
				for _, idx := range b.Explicit {
					mark(idx)
				}
			} else {
				b.Set.ForEach(func(idx int64) bool { mark(idx); return true })
			}
		}
	}
	const letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	var strip strings.Builder
	for _, o := range owner {
		if o < 0 {
			strip.WriteByte('.')
		} else {
			strip.WriteByte(letters[o%len(letters)])
		}
	}
	fmt.Println("iteration space (lexicographic order), coloured by first owner per column:")
	fmt.Println("  " + strip.String())
	fmt.Println()

	// Per-I/O-group data overlap: popcount of AND of the sibling clients'
	// footprint tags, normalized by the smaller footprint.
	r := w.Prog.Data.NumChunks()
	footprints := make([]bitvec.Vector, tree.NumClients())
	if res.PerClient != nil {
		for ci, cl := range res.PerClient {
			fp := bitvec.New(r)
			for _, c := range cl {
				c.Tag.OrInto(fp)
			}
			footprints[ci] = fp
		}
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "I/O group\tclients\tfootprints (chunks)\toverlap")
		for gi := 0; gi < tree.NumClients()/2; gi++ {
			a, b := 2*gi, 2*gi+1
			fa, fb := footprints[a], footprints[b]
			common := fa.AndPopCount(fb)
			minFp := fa.PopCount()
			if p := fb.PopCount(); p < minFp {
				minFp = p
			}
			pct := 0.0
			if minFp > 0 {
				pct = 100 * float64(common) / float64(minFp)
			}
			fmt.Fprintf(tw, "IO%d\t%d,%d\t%d,%d\t%d (%.0f%%)\n",
				gi, a, b, fa.PopCount(), fb.PopCount(), common, pct)
		}
		tw.Flush()
	} else {
		fmt.Println("(chunk footprints available for inter schemes only)")
	}
}
