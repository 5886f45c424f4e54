package matrix

import (
	"math"
	"math/rand"
)

// RandomDense fills a rows×cols dense block with uniform values in [0, 1),
// matching the paper's synthetic dense generator.
func RandomDense(rng *rand.Rand, rows, cols int) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.Float64()
	}
	return d
}

// RandomSparse generates a rows×cols CSR block whose non-zero elements are
// "randomly and uniformly distributed" (paper §6.1) with the given sparsity
// (fraction of non-zeros; 1.0 means fully dense). Each element is non-zero
// independently with probability sparsity, with value uniform in (0, 1].
func RandomSparse(rng *rand.Rand, rows, cols int, sparsity float64) *CSR {
	if sparsity < 0 || sparsity > 1 {
		panic("matrix: RandomSparse: sparsity must be in [0, 1]")
	}
	m := &CSR{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
	if sparsity == 0 {
		return m
	}
	for i := 0; i < rows; i++ {
		if sparsity >= 0.5 {
			// Dense-ish rows: per-element Bernoulli scan is cheap enough.
			for j := 0; j < cols; j++ {
				if rng.Float64() < sparsity {
					m.ColIdx = append(m.ColIdx, j)
					m.Val = append(m.Val, 1-float64(rng.Float64()))
				}
			}
		} else {
			// Sparse rows: geometric gap sampling keeps generation O(nnz).
			j := nextGap(rng, sparsity)
			for j < cols {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, 1-float64(rng.Float64()))
				j += 1 + nextGap(rng, sparsity)
			}
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

// nextGap samples the number of consecutive zeros before the next non-zero
// for a Bernoulli(p) process (a geometric distribution).
func nextGap(rng *rand.Rand, p float64) int {
	// Inverse-CDF sampling: floor(log(u)/log(1-p)).
	u := rng.Float64()
	if u == 0 {
		u = 1e-300
	}
	g := int(math.Log(u) / math.Log(1-p))
	if g < 0 {
		g = 0
	}
	return g
}
