package core

import (
	"runtime"
	"sync"

	"distme/internal/bmat"
	"distme/internal/matrix"
)

// Parallel matrix aggregation. The sequential merge of the seed walked
// every cuboid's partial map in turn and folded each block into the output
// matrix — single-threaded work proportional to R·|C|, which for CPMM-like
// partitionings (large R) rivals the local multiplication itself. Here the
// output (i,j) key space is sharded across workers: each block is owned by
// exactly one goroutine, so no locks are taken, and each owner folds its
// blocks in the same cuboid order the sequential merge used, so per-block
// floating-point accumulation order — and therefore every output bit — is
// identical for any worker count.
//
// Partials arrive as CSR blocks (sparse×sparse products) or dense blocks.
// Two CSR partials merge into a fresh CSR (matrix.AddCSR); a dense or mixed
// pair is added into a dense accumulator, a CSR accumulator being densified
// first, so every sum is still existing + incoming and the bits equal an
// all-dense merge. Merged-away dense partials are released to the
// dense-buffer pool at the moment they die (their array has no other
// readers by construction: each partial map entry is visited exactly
// once, by its key's owner).

// aggShard deterministically assigns an output block key to one of n
// workers. The multipliers spread consecutive (i, j) keys across shards so
// row- or column-striped outputs do not pile onto one worker.
func aggShard(key bmat.BlockKey, n int) int {
	h := uint32(key.I)*0x9E3779B1 + uint32(key.J)*0x85EBCA77
	return int(h % uint32(n))
}

// aggregateBlockPartials folds per-cuboid partial maps into out. sizeOf,
// when non-nil, is charged once per partial block and the total returned —
// the aggregation-shuffle byte count. workers <= 1 runs the sequential
// merge; the results are bit-identical either way.
func aggregateBlockPartials(out *bmat.BlockMatrix, partials []map[bmat.BlockKey]matrix.Block, workers int, sizeOf func(matrix.Block) int64) int64 {
	sorted := make([][]keyedBlock, 0, len(partials))
	for _, p := range partials {
		if len(p) == 0 {
			continue
		}
		sorted = append(sorted, sortedPartials(p))
	}
	if len(sorted) == 0 {
		return 0
	}
	if workers > len(sorted)*4 {
		// More workers than could plausibly find distinct keys to own.
		workers = len(sorted) * 4
	}
	if workers <= 1 {
		var bytes int64
		for _, list := range sorted {
			for _, kb := range list {
				if sizeOf != nil {
					bytes += sizeOf(kb.block)
				}
				mergeBlock(out, kb)
			}
		}
		return bytes
	}

	merged := make([][]keyedBlock, workers)
	byteBy := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var list []keyedBlock
			index := make(map[bmat.BlockKey]int)
			var bytes int64
			for _, part := range sorted {
				for _, kb := range part {
					if aggShard(kb.key, workers) != w {
						continue
					}
					if sizeOf != nil {
						bytes += sizeOf(kb.block)
					}
					if li, ok := index[kb.key]; ok {
						list[li].block = addPartial(list[li].block, kb.block)
					} else {
						index[kb.key] = len(list)
						list = append(list, kb)
					}
				}
			}
			merged[w] = list
			byteBy[w] = bytes
		}(w)
	}
	wg.Wait()
	var bytes int64
	for w := 0; w < workers; w++ {
		bytes += byteBy[w]
		for _, kb := range merged[w] {
			mergeBlock(out, kb)
		}
	}
	return bytes
}

// mergeBlock folds one keyed partial into the output matrix.
func mergeBlock(out *bmat.BlockMatrix, kb keyedBlock) {
	if existing := out.Block(kb.key.I, kb.key.J); existing != nil {
		out.SetBlock(kb.key.I, kb.key.J, addPartial(existing, kb.block))
	} else {
		out.SetBlock(kb.key.I, kb.key.J, kb.block)
	}
}

// addPartial returns acc + p (matrix.Accumulate), consuming both: a dense
// p is released to the pool once added.
func addPartial(acc, p matrix.Block) matrix.Block {
	sum := matrix.Accumulate(acc, p)
	if d, ok := p.(*matrix.Dense); ok {
		matrix.PutDense(d)
	}
	return sum
}

// aggregateVoxelPartials is the RMM variant: partials are keyed by voxel
// (i,j,k) and every partial block crosses the shuffle, so each is charged
// its full stored size. Keys are sharded by their (i,j) target block,
// which is also the merge granularity.
func aggregateVoxelPartials(out *bmat.BlockMatrix, partials []map[bmat.VoxelKey]*matrix.Dense, workers int) int64 {
	sorted := make([][]keyedVoxelBlock, 0, len(partials))
	for _, p := range partials {
		if len(p) == 0 {
			continue
		}
		sorted = append(sorted, sortedVoxelPartials(p))
	}
	if len(sorted) == 0 {
		return 0
	}
	if workers > len(sorted)*4 {
		workers = len(sorted) * 4
	}
	if workers <= 1 {
		var bytes int64
		for _, list := range sorted {
			for _, kb := range list {
				bytes += kb.block.SizeBytes()
				mergeVoxelBlock(out, kb)
			}
		}
		return bytes
	}

	merged := make([][]keyedVoxelBlock, workers)
	byteBy := make([]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var list []keyedVoxelBlock
			index := make(map[bmat.BlockKey]int)
			var bytes int64
			for _, part := range sorted {
				for _, kb := range part {
					key := bmat.BlockKey{I: kb.key.I, J: kb.key.J}
					if aggShard(key, workers) != w {
						continue
					}
					bytes += kb.block.SizeBytes()
					if li, ok := index[key]; ok {
						matrix.AddInto(list[li].block, kb.block)
						matrix.PutDense(kb.block)
					} else {
						index[key] = len(list)
						list = append(list, kb)
					}
				}
			}
			merged[w] = list
			byteBy[w] = bytes
		}(w)
	}
	wg.Wait()
	var bytes int64
	for w := 0; w < workers; w++ {
		bytes += byteBy[w]
		for _, kb := range merged[w] {
			mergeVoxelBlock(out, kb)
		}
	}
	return bytes
}

func mergeVoxelBlock(out *bmat.BlockMatrix, kb keyedVoxelBlock) {
	if existing := out.Block(kb.key.I, kb.key.J); existing != nil {
		matrix.AddInto(existing.(*matrix.Dense), kb.block)
		matrix.PutDense(kb.block)
	} else {
		out.SetBlock(kb.key.I, kb.key.J, kb.block)
	}
}

// aggWorkers resolves the aggregation fan-out width for this environment.
func (e *Env) aggWorkers() int {
	if e.AggregationWorkers > 0 {
		return e.AggregationWorkers
	}
	return runtime.GOMAXPROCS(0)
}
