package cachemap_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	cachemap "repro"
)

// Example_mapping reproduces the paper's running example (Figures 6–9):
// the 8 iteration chunks of the Figure 6 loop are distributed over the
// Figure 7 hierarchy (4 clients, 2 I/O nodes, 1 storage node), landing as
// the odd and even tag families of Figure 9.
func Example_mapping() {
	const d = 8 // data chunk size in elements (1-byte elements)
	data := cachemap.NewDataSpace(d,
		cachemap.Array{Name: "A", Dims: []int64{12 * d}, ElemSize: 1})
	nest := cachemap.NewNest("fig6", []int64{0}, []int64{8*d - 1})
	refs := []cachemap.Ref{
		cachemap.SimpleRef(0, 1, []int{0}, []int64{0}, cachemap.Write),      // A[i]
		{Array: 0, Exprs: []cachemap.RefExpr{{Coeffs: []int64{1}, Mod: d}}}, // A[i%d]
		cachemap.SimpleRef(0, 1, []int{0}, []int64{4 * d}, cachemap.Read),   // A[i+4d]
		cachemap.SimpleRef(0, 1, []int{0}, []int64{2 * d}, cachemap.Read),   // A[i+2d]
	}

	tree := cachemap.NewHierarchy(4, 2, 1, 64)
	chunks := cachemap.ComputeIterationChunks(nest, refs, data)
	fmt.Printf("%d iteration chunks over %d data chunks\n", len(chunks), data.NumChunks())

	assign, _ := cachemap.Distribute(chunks, tree, cachemap.DefaultDistributeOptions())
	for ci, cl := range assign {
		fmt.Printf("client %d:", ci)
		for _, c := range cl {
			fmt.Printf(" γ%d", c.Iters.Min()/d+1)
		}
		fmt.Println()
	}
	// Output:
	// 8 iteration chunks over 12 data chunks
	// client 0: γ1 γ3
	// client 1: γ7 γ5
	// client 2: γ2 γ4
	// client 3: γ8 γ6
}

// Example_simulate maps a small multi-pass workload two ways and compares
// the simulated disk traffic: the hierarchy-aware mapping reads each chunk
// once, while the block mapping re-reads on every pass.
func Example_simulate() {
	w, _ := cachemap.Synthesize(cachemap.SynthSpec{
		Name:    "demo",
		Passes:  4,
		Extent:  256,
		Streams: []cachemap.StreamSpec{{Stride: 1}, {Stride: 1, Offset: 16}},
	})
	tree := func() *cachemap.Hierarchy { return cachemap.NewHierarchy(8, 4, 2, 8) }
	p := cachemap.DefaultSimParams()

	orig, _ := cachemap.MapAndSimulate(cachemap.Original, w.Prog, tree(), p)
	inter, _ := cachemap.MapAndSimulate(cachemap.InterProcessor, w.Prog, tree(), p)
	fmt.Printf("original: %d disk reads\n", orig.DiskReads)
	fmt.Printf("inter:    %d disk reads\n", inter.DiskReads)
	fmt.Printf("inter reads less: %v\n", inter.DiskReads < orig.DiskReads)
	// Output:
	// original: 72 disk reads
	// inter:    36 disk reads
	// inter reads less: true
}

// Example_service runs the mapping service in process and walks the
// client-side flow of cmd/cachemapd's API: build a request spec, POST it
// to the daemon handler, decode the versioned plan, and turn it back into
// an executable assignment. Repeating the identical spec hits the
// content-addressed plan cache.
func Example_service() {
	svc, err := cachemap.NewService(cachemap.ServiceConfig{})
	if err != nil {
		panic(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	req := cachemap.MapRequest{
		Workload: cachemap.WorkloadSpec{Synth: &cachemap.SynthSpec{
			Name:    "svc-demo",
			Passes:  2,
			Extent:  256,
			Streams: []cachemap.StreamSpec{{Stride: 1}, {Stride: 1, Offset: 16}},
		}},
		Topology: "1/2/4@16,8,4", // 1 storage node, 2 I/O nodes, 4 clients
		Scheme:   "inter",
	}
	post := func() cachemap.MapResponse {
		body, _ := json.Marshal(req)
		resp, err := http.Post(ts.URL+"/v1/map", "application/json", bytes.NewReader(body))
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		var mr cachemap.MapResponse
		if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
			panic(err)
		}
		return mr
	}

	mr := post()
	fmt.Printf("plan schema v%d: %d iterations over %d clients\n",
		mr.Plan.Schema, mr.Plan.TotalIterations, mr.Plan.Clients)

	asg, _ := cachemap.DecodeAssignment(mr.Plan)
	fmt.Printf("client 0 executes %d iterations\n", asg.TotalIterations()/int64(len(asg)))

	again := post()
	fmt.Printf("first cached: %v, repeat cached: %v\n", mr.Cached, again.Cached)
	// Output:
	// plan schema v1: 512 iterations over 4 clients
	// client 0 executes 128 iterations
	// first cached: false, repeat cached: true
}
