// Package mapping holds the versioned wire format of a computed mapping:
// the Plan served by cachemapd's POST /v1/map and its round-trip back to
// an executable assignment. The planning itself lives in package pipeline;
// AppendJSON writes a pipeline result's plan as JSON, and PlanOf converts
// a result to its wire form as data.
package mapping

import (
	"encoding/json"
	"fmt"
	"strconv"
	"unicode/utf8"

	"repro/internal/iosim"
	"repro/internal/itset"
	"repro/internal/pipeline"
)

// PlanSchemaVersion is the wire-format version of Plan. It is bumped on
// any change to the JSON encoding that existing decoders cannot read, so
// plans cached or stored by one release stay interpretable by the next.
const PlanSchemaVersion = 1

// Plan is the serializable form of a computed mapping — the versioned wire
// format served by cachemapd's `POST /v1/map`. It carries exactly what a
// client needs to execute the mapping (its ordered block list) plus the
// summary statistics of the distribution; run-length iteration sets encode
// as [start, end) pairs, so plans stay compact even for huge nests.
type Plan struct {
	Schema  int             `json:"schema"`
	Scheme  pipeline.Scheme `json:"scheme"`
	Clients int             `json:"clients"`
	// Work[c] is client c's ordered block list; a client with no work has
	// an empty list.
	Work [][]PlanBlock `json:"work"`
	// TotalIterations is the number of iterations mapped across clients.
	TotalIterations int64 `json:"total_iterations"`
	// IterationChunks is the number of iteration chunks fed to the
	// distributor (inter schemes only).
	IterationChunks int `json:"iteration_chunks,omitempty"`
	// SyncEdges counts cross-client dependent chunk pairs (DepSync only).
	SyncEdges int `json:"sync_edges,omitempty"`
}

// PlanBlock is one scheduled unit of work: either run-length iteration
// runs (half-open [start, end) index pairs, executed lexicographically) or
// an explicit index sequence (transformed orders). Exactly one field is
// populated.
type PlanBlock struct {
	Runs     [][2]int64 `json:"runs,omitempty"`
	Explicit []int64    `json:"explicit,omitempty"`
}

// PlanOf converts a pipeline result into its serializable wire form.
func PlanOf(r *pipeline.Result) Plan {
	p := Plan{
		Schema:          PlanSchemaVersion,
		Scheme:          r.Scheme,
		Clients:         len(r.Assignment),
		Work:            make([][]PlanBlock, len(r.Assignment)),
		TotalIterations: r.Assignment.TotalIterations(),
		IterationChunks: r.NumChunks,
		SyncEdges:       r.SyncEdges,
	}
	for c, blocks := range r.Assignment {
		p.Work[c] = make([]PlanBlock, 0, len(blocks))
		for _, b := range blocks {
			if b.Explicit != nil {
				p.Work[c] = append(p.Work[c], PlanBlock{Explicit: b.Explicit})
				continue
			}
			var pb PlanBlock
			b.Set.ForEachRun(func(run itset.Run) {
				pb.Runs = append(pb.Runs, [2]int64{run.Start, run.End})
			})
			p.Work[c] = append(p.Work[c], pb)
		}
	}
	return p
}

// AppendJSON appends r's plan to dst as JSON and returns the extended
// slice. It writes straight from r.Assignment, and its bytes are exactly
// those json.Marshal(PlanOf(r)) gives: the members in Plan's order, with
// iteration_chunks and sync_edges omitted when zero, and a block with no
// runs or explicit indices written as {}. TestPlanJSONMatchesMarshal and
// FuzzPlanJSON hold it to that oracle.
func AppendJSON(dst []byte, r *pipeline.Result) []byte {
	dst = append(dst, `{"schema":`...)
	dst = strconv.AppendInt(dst, PlanSchemaVersion, 10)
	dst = append(dst, `,"scheme":`...)
	dst = appendString(dst, string(r.Scheme))
	dst = append(dst, `,"clients":`...)
	dst = strconv.AppendInt(dst, int64(len(r.Assignment)), 10)
	dst = append(dst, `,"work":[`...)
	var total int64
	for c, blocks := range r.Assignment {
		if c > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for i, b := range blocks {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendBlock(dst, b)
			total += b.Count()
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `],"total_iterations":`...)
	dst = strconv.AppendInt(dst, total, 10)
	if r.NumChunks != 0 {
		dst = append(dst, `,"iteration_chunks":`...)
		dst = strconv.AppendInt(dst, int64(r.NumChunks), 10)
	}
	if r.SyncEdges != 0 {
		dst = append(dst, `,"sync_edges":`...)
		dst = strconv.AppendInt(dst, int64(r.SyncEdges), 10)
	}
	return append(dst, '}')
}

// appendBlock writes one block as its PlanBlock encodes.
func appendBlock(dst []byte, b iosim.Block) []byte {
	if b.Explicit != nil {
		if len(b.Explicit) == 0 {
			return append(dst, "{}"...)
		}
		dst = append(dst, `{"explicit":[`...)
		for i, x := range b.Explicit {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, x, 10)
		}
		return append(dst, "]}"...)
	}
	if b.Set.IsEmpty() {
		return append(dst, "{}"...)
	}
	dst = append(dst, `{"runs":[`...)
	first := true
	b.Set.ForEachRun(func(run itset.Run) {
		if !first {
			dst = append(dst, ',')
		}
		first = false
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, run.Start, 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, run.End, 10)
		dst = append(dst, ']')
	})
	return append(dst, "]}"...)
}

// appendString writes s as a JSON string. A string that needs escaping
// (quotes, backslashes, control bytes, the HTML characters <, > and &, or
// any non-ASCII byte) goes through encoding/json, so the escaping stays
// its own; scheme names never do.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s) // a string always encodes
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// Assignment reconstructs the executable per-client work lists from the
// wire form. It rejects plans written under a different schema version.
func (p Plan) Assignment() (iosim.Assignment, error) {
	if p.Schema != PlanSchemaVersion {
		return nil, fmt.Errorf("mapping: plan schema %d, this build reads %d", p.Schema, PlanSchemaVersion)
	}
	if p.Clients != len(p.Work) {
		return nil, fmt.Errorf("mapping: plan declares %d clients but carries %d work lists",
			p.Clients, len(p.Work))
	}
	asg := make(iosim.Assignment, len(p.Work))
	for c, blocks := range p.Work {
		for i, pb := range blocks {
			if pb.Explicit != nil && pb.Runs != nil {
				return nil, fmt.Errorf("mapping: plan client %d block %d has both runs and explicit indices", c, i)
			}
			if pb.Explicit != nil {
				asg[c] = append(asg[c], iosim.Block{Explicit: pb.Explicit})
				continue
			}
			runs := make([]itset.Run, 0, len(pb.Runs))
			for _, r := range pb.Runs {
				if r[1] <= r[0] {
					return nil, fmt.Errorf("mapping: plan client %d block %d has empty run [%d,%d)", c, i, r[0], r[1])
				}
				runs = append(runs, itset.Run{Start: r[0], End: r[1]})
			}
			asg[c] = append(asg[c], iosim.Block{Set: itset.FromRuns(runs...)})
		}
	}
	if got := asg.TotalIterations(); got != p.TotalIterations {
		return nil, fmt.Errorf("mapping: plan declares %d iterations but blocks carry %d",
			p.TotalIterations, got)
	}
	return asg, nil
}
