package main

import (
	"fmt"
	"math"

	"distme/internal/bmat"
	"distme/internal/core"
	"distme/internal/matrix"
	"distme/internal/plan"
	"distme/internal/shuffle"
)

// denseRef and blockPairRef are written out as plain loops so that they
// share no code with the kernels under test. They follow the accumulation
// order the engine pins: each C element sums its products in ascending k; a k
// range split across R cuboids is summed per range and the R partials are
// added in ascending r; a zero in A contributes nothing.

// denseRef computes C = A×B for dense operands under a (·,·,R) split.
func denseRef(a, b *bmat.BlockMatrix, params core.Params) *matrix.Dense {
	ad, bd := a.ToDense(), b.ToDense()
	m, k, n := a.Rows, a.Cols, b.Cols
	out := matrix.NewDense(m, n)
	part := make([]float64, m*n)
	for r := 0; r < params.R; r++ {
		klo, khi := kRange(a, r, params.R)
		for i := range part {
			part[i] = 0
		}
		for i := 0; i < m; i++ {
			for p := klo; p < khi; p++ {
				av := ad.Data[i*k+p]
				if av == 0 {
					continue
				}
				brow := bd.Data[p*n : (p+1)*n]
				prow := part[i*n : (i+1)*n]
				for j, bv := range brow {
					prow[j] += av * bv
				}
			}
		}
		addPartial(out.Data, part, r)
	}
	return out
}

// kRange is the element k range of the r-th of R cuboid slabs.
func kRange(a *bmat.BlockMatrix, r, R int) (int, int) {
	lo, hi := shuffle.GridSpan(r, a.JB, R)
	hi *= a.BlockSize
	if hi > a.Cols {
		hi = a.Cols
	}
	return lo * a.BlockSize, hi
}

func addPartial(out, part []float64, r int) {
	if r == 0 {
		copy(out, part)
		return
	}
	for i, v := range part {
		out[i] += v
	}
}

// blockPairRef computes C = A×B the way a sparse cuboid does: every block
// pair's product is summed on its own (ascending k inside the pair) and
// then added into the C block's accumulator in ascending block k.
func blockPairRef(a, b *bmat.BlockMatrix, params core.Params) *matrix.Dense {
	bs := a.BlockSize
	out := matrix.NewDense(a.Rows, b.Cols)
	for bi := 0; bi < a.IB; bi++ {
		for bj := 0; bj < b.JB; bj++ {
			rows, _ := a.BlockDims(bi, 0)
			_, cols := b.BlockDims(0, bj)
			total := make([]float64, rows*cols)
			acc := make([]float64, rows*cols)
			pair := make([]float64, rows*cols)
			for r := 0; r < params.R; r++ {
				lo, hi := shuffle.GridSpan(r, a.JB, params.R)
				for i := range acc {
					acc[i] = 0
				}
				for bk := lo; bk < hi; bk++ {
					ab, bb := a.Block(bi, bk), b.Block(bk, bj)
					if ab == nil || bb == nil {
						continue
					}
					naiveBlock(pair, ab.Dense(), bb.Dense())
					for i, v := range pair {
						acc[i] += v
					}
				}
				addPartial(total, acc, r)
			}
			for i := 0; i < rows; i++ {
				copy(out.Data[(bi*bs+i)*out.ColsN+bj*bs:], total[i*cols:(i+1)*cols])
			}
		}
	}
	return out
}

// naiveBlock writes the product of one block pair into dst, ascending k.
func naiveBlock(dst []float64, a, b *matrix.Dense) {
	m, k := a.Dims()
	_, n := b.Dims()
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a.Data[i*k+p]
			if av == 0 {
				continue
			}
			drow := dst[i*n : (i+1)*n]
			for j, bv := range b.Data[p*n : (p+1)*n] {
				drow[j] += av * bv
			}
		}
	}
}

// sameBits reports whether every element of got equals want bit for bit.
// It walks the blocks in place, so checking a result allocates nothing.
func sameBits(got *bmat.BlockMatrix, want *matrix.Dense) bool {
	if got == nil || got.Rows != want.RowsN || got.Cols != want.ColsN {
		return false
	}
	bs, n := got.BlockSize, want.ColsN
	for bi := 0; bi < got.IB; bi++ {
		for bj := 0; bj < got.JB; bj++ {
			rows, cols := got.BlockDims(bi, bj)
			blk := got.Block(bi, bj)
			for i := 0; i < rows; i++ {
				wrow := want.Data[(bi*bs+i)*n+bj*bs : (bi*bs+i)*n+bj*bs+cols]
				if !sameRow(blk, i, wrow) {
					return false
				}
			}
		}
	}
	return true
}

func sameRow(blk matrix.Block, i int, want []float64) bool {
	eq := func(j int, v float64) bool { return math.Float64bits(v) == math.Float64bits(want[j]) }
	switch b := blk.(type) {
	case nil:
		for j := range want {
			if !eq(j, 0) {
				return false
			}
		}
	case *matrix.Dense:
		for j, v := range b.Data[i*b.ColsN : (i+1)*b.ColsN] {
			if !eq(j, v) {
				return false
			}
		}
	case *matrix.CSR:
		p, end := b.RowPtr[i], b.RowPtr[i+1]
		for j := range want {
			v := 0.0
			if p < end && b.ColIdx[p] == j {
				v = b.Val[p]
				p++
			}
			if !eq(j, v) {
				return false
			}
		}
	default:
		for j := range want {
			if !eq(j, blk.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// gnmfRef replays iters GNMF steps in one process: the same compiled
// update plans and the same initial factors as ml.NewGNMFPipeline, each
// operator evaluated with the pipeline's block semantics (per C block, the
// block products accumulate in ascending k; element-wise operators zip
// blocks with the engine's missing-block rules). It calls the block
// kernels directly, so it checks what the resident pipeline adds on top of
// them: the stores, the band exchange, the wire and the handle lifecycle.
func gnmfRef(v *bmat.BlockMatrix, w, h *bmat.BlockMatrix, hx, wx plan.Expr, iters int) (*bmat.BlockMatrix, *bmat.BlockMatrix, error) {
	hp, err := plan.Compile(hx)
	if err != nil {
		return nil, nil, err
	}
	wp, err := plan.Compile(wx)
	if err != nil {
		return nil, nil, err
	}
	for it := 0; it < iters; it++ {
		binds := map[string]*bmat.BlockMatrix{"v": v, "w": w, "h": h}
		if h, err = plan.EvalWith(hp, binds, evalBlocks, nil); err != nil {
			return nil, nil, err
		}
		binds["h"] = h
		if w, err = plan.EvalWith(wp, binds, evalBlocks, nil); err != nil {
			return nil, nil, err
		}
	}
	return w, h, nil
}

func evalBlocks(n plan.NodeInfo, a, b *bmat.BlockMatrix) (*bmat.BlockMatrix, error) {
	switch n.Kind {
	case plan.OpMul:
		out := bmat.New(a.Rows, b.Cols, a.BlockSize)
		for i := 0; i < a.IB; i++ {
			for j := 0; j < b.JB; j++ {
				var acc *matrix.Dense
				for k := 0; k < a.JB; k++ {
					ab, bb := a.Block(i, k), b.Block(k, j)
					if ab != nil && bb != nil {
						acc = matrix.MulAdd(acc, ab, bb)
					}
				}
				if acc != nil {
					out.SetBlock(i, j, acc)
				}
			}
		}
		return out, nil
	case plan.OpTranspose:
		return a.Transpose(), nil
	case plan.OpHadamard, plan.OpDivElem:
		out := bmat.New(a.Rows, a.Cols, a.BlockSize)
		for i := 0; i < a.IB; i++ {
			for j := 0; j < a.JB; j++ {
				x, y := a.Block(i, j), b.Block(i, j)
				if x == nil || (n.Kind == plan.OpHadamard && y == nil) {
					continue
				}
				if n.Kind == plan.OpHadamard {
					out.SetBlock(i, j, matrix.Hadamard(x, y))
					continue
				}
				if y == nil {
					r, c := x.Dims()
					y = matrix.NewDense(r, c)
				}
				out.SetBlock(i, j, matrix.DivElem(x, y, n.Scalar))
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("gnmf reference: operator %v not in the GNMF plans", n.Kind)
}
