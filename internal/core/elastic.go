package core

import (
	"context"
	"fmt"
	"time"

	"distme/internal/bmat"
	"distme/internal/cluster"
	"distme/internal/matrix"
	"distme/internal/obs"
	"distme/internal/shuffle"
)

// Lineage recovery for the matrix-aggregation step. A cuboid task's partial
// output lives on its executor until the aggregation shuffle fetches it;
// when the configured fault injector fails those fetches, the executor
// retries, and after maxTransientFetches consecutive failures declares the
// partition lost and recomputes it from lineage — the cuboid's voxel box
// over the original A and B operands, exactly as Spark resubmits a lost
// stage from its RDD lineage. Recomputation is deterministic, so recovered
// runs stay bit-identical to failure-free ones.

// maxTransientFetches is how many consecutive fetch failures of one
// partition are treated as transient before the partition is declared lost.
const maxTransientFetches = 2

// recoverCuboidPartials re-fetches every cuboid's partial ahead of
// aggregation, retrying transient shuffle-fetch failures and recomputing
// lost partials from lineage. A nil injector (no fault config) fetches
// nothing and returns immediately.
func recoverCuboidPartials(ctx context.Context, env Env, parent obs.SpanID, cuboids []*Cuboid, partials []map[bmat.BlockKey]matrix.Block, mult LocalMultiplier) error {
	inj := env.Cluster.FaultInjector()
	if inj == nil || inj.Config().FetchFailRate <= 0 {
		return nil
	}
	rec := env.recorder()
	for idx, c := range cuboids {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", cluster.ErrCancelled, err)
		}
		name := c.Name()
		retries, lost := shuffle.SimulateFetch(func(attempt int) bool {
			return inj.FetchFailed(name, attempt)
		}, maxTransientFetches)
		for i := 0; i < retries; i++ {
			rec.AddFetchRetry()
			rec.AddFaultInjected()
		}
		if !lost {
			continue
		}
		releasePartialMap(partials[idx])
		partials[idx] = nil
		recomputeStart := time.Now()
		out, err := mult.Multiply(c)
		if err != nil {
			return err
		}
		partials[idx] = out
		rec.AddRecomputedPartial()
		if env.Tracer.Enabled() {
			env.Tracer.AddCompleted(obs.SpanData{
				Parent: parent,
				Name:   "task.recompute",
				Kind:   obs.KindTask,
				Worker: name,
				P:      c.P, Q: c.Q, R: c.R,
				Start: recomputeStart, End: time.Now(),
			})
		}
	}
	return nil
}

// recoverVoxelPartials is the RMM variant: taskGroup maps each scheduled
// cluster task to its voxel group index, and recompute(t) re-derives the
// group's block-pair products from the operands.
func recoverVoxelPartials(ctx context.Context, env Env, parent obs.SpanID, taskGroup []int, partials []map[bmat.VoxelKey]*matrix.Dense, recompute func(t int) (map[bmat.VoxelKey]*matrix.Dense, error)) error {
	inj := env.Cluster.FaultInjector()
	if inj == nil || inj.Config().FetchFailRate <= 0 {
		return nil
	}
	rec := env.recorder()
	for _, t := range taskGroup {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", cluster.ErrCancelled, err)
		}
		name := fmt.Sprintf("rmm-task(%d)", t)
		retries, lost := shuffle.SimulateFetch(func(attempt int) bool {
			return inj.FetchFailed(name, attempt)
		}, maxTransientFetches)
		for i := 0; i < retries; i++ {
			rec.AddFetchRetry()
			rec.AddFaultInjected()
		}
		if !lost {
			continue
		}
		releaseVoxelPartialMap(partials[t])
		partials[t] = nil
		recomputeStart := time.Now()
		out, err := recompute(t)
		if err != nil {
			return err
		}
		partials[t] = out
		rec.AddRecomputedPartial()
		if env.Tracer.Enabled() {
			env.Tracer.AddCompleted(obs.SpanData{
				Parent: parent,
				Name:   "task.recompute",
				Kind:   obs.KindTask,
				Worker: name,
				P:      -1, Q: -1, R: -1,
				Start: recomputeStart, End: time.Now(),
			})
		}
	}
	return nil
}

// releasePartialMap returns a discarded partial's pooled dense buffers;
// its CSR blocks are left to the garbage collector.
func releasePartialMap(m map[bmat.BlockKey]matrix.Block) {
	for _, b := range m {
		if d, ok := b.(*matrix.Dense); ok {
			matrix.PutDense(d)
		}
	}
}

// releaseVoxelPartialMap is releasePartialMap for voxel-keyed partials.
func releaseVoxelPartialMap(m map[bmat.VoxelKey]*matrix.Dense) {
	for _, d := range m {
		matrix.PutDense(d)
	}
}
