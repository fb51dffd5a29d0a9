package experiments

import (
	"context"
	"time"

	"repro/internal/pipeline"
	"repro/internal/tags"
)

// OverheadRow measures the compile-time cost of the mapping for one
// application: the paper reports that including the approach increased
// compilation times by 46–87%, and that shrinking the data chunk from
// 64 KB to 16 KB increased compilation time by more than 75% (Section 5.3).
//
// The per-phase columns are the pipeline's own stage names, so a row reads
// like the daemon's stage ledger.
type OverheadRow struct {
	App          string
	Chunks       int           // iteration chunks fed to the distributor
	TagMS        float64       // tags: iteration chunk formation
	SimilarityMS float64       // similarity: Figure 5 similarity graph seeding
	ClusterMS    float64       // cluster: Figure 5 Stage 1 merge loop
	BalanceMS    float64       // balance: Figure 5 Stage 2 load balancing
	ScheduleMS   float64       // schedule: Figure 15 scheduling
	Total        time.Duration // end-to-end mapping time
}

// OverheadStudy times each mapping phase per application by reading the
// staged planner's own per-stage ledger (the same breakdown the daemon
// exports as cachemapd_stage_duration_seconds). chunkBytes overrides the
// data chunk size (0 = the config's default), so the paper's
// chunk-size/compile-time trade-off can be reproduced by calling it twice.
func OverheadStudy(base Config, chunkBytes int64) ([]OverheadRow, error) {
	if chunkBytes == 0 {
		chunkBytes = base.ChunkBytes
	}
	apps, err := base.Apps()
	if err != nil {
		return nil, err
	}
	tree := base.Tree()
	var rows []OverheadRow
	for _, w := range apps {
		if chunkBytes != w.Prog.Data.ChunkBytes {
			w = w.WithChunkBytes(chunkBytes)
		}
		t0 := time.Now()
		res, err := pipeline.Map(context.Background(), pipeline.InterProcessorSched,
			w.Prog, base.mappingConfig(tree))
		if err != nil {
			return nil, err
		}
		total := time.Since(t0)
		row := OverheadRow{App: w.Name, Chunks: len(res.Chunks), Total: total}
		for _, st := range res.Stages {
			switch st.Stage {
			case pipeline.StageTags:
				row.TagMS += st.DurationMS
			case pipeline.StageSimilarity:
				row.SimilarityMS += st.DurationMS
			case pipeline.StageCluster:
				row.ClusterMS += st.DurationMS
			case pipeline.StageBalance:
				row.BalanceMS += st.DurationMS
			case pipeline.StageSchedule:
				row.ScheduleMS += st.DurationMS
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// MappingWorkFactor compares the iteration-chunk counts (the dominant
// clustering cost driver) at two chunk sizes — the structural part of the
// paper's compile-time observation, independent of wall-clock noise. Only
// the tag stage runs, so the comparison stays cheap at small chunk sizes.
func MappingWorkFactor(base Config, sizeA, sizeB int64) (chunksA, chunksB int, err error) {
	apps, err := base.Apps()
	if err != nil {
		return 0, 0, err
	}
	for _, w := range apps {
		a := w.WithChunkBytes(sizeA)
		b := w.WithChunkBytes(sizeB)
		chunksA += len(tags.Compute(a.Prog.Nest, a.Prog.Refs, a.Prog.Data))
		chunksB += len(tags.Compute(b.Prog.Nest, b.Prog.Refs, b.Prog.Data))
	}
	return chunksA, chunksB, nil
}
