// Package matrix provides the local (single-task) matrix kernels used by the
// DistME engine: dense row-major blocks, CSR/CSC sparse blocks, and the
// multiply / add / transpose / element-wise kernels that the paper delegates
// to LAPACK (CPU) and cuBLAS / cuSPARSE (GPU). Everything is Go apart from
// one amd64 assembly micro-kernel inside Gemm, so the distributed and GPU
// layers above it are fully testable and deterministic.
//
// # Arithmetic contract
//
// Gemm, and Mul and MulAdd on two dense blocks, compute every element of C
// exactly as this loop does:
//
//	for p := 0; p < k; p++ {
//		if a[i][p] != 0 {
//			c[i][j] += float64(a[i][p] * b[p][j])
//		}
//	}
//
// That is: accumulation in ascending k; a separate rounding for each
// multiply and each add, never a fused multiply-add, on any GOARCH; and a
// zero in A contributes nothing, even against an Inf or NaN in B. So C is
// bit-identical whichever path computes it (the AVX micro-kernel or the
// pure-Go loops), at any kernel worker count, NaN payloads apart. The
// sparse kernels apply the same zero rule to the entries they do not store
// (DenseMulCSC does not skip zeros in its dense A) and never fuse either,
// but group their additions as each one's comment says: they are
// deterministic, not bit-identical to Gemm on the densified operands. Every
// multiply-accumulate in this package is written float64(x*y) + z, the
// conversion the Go spec defines to forbid fusion.
//
// # Sparse accumulation
//
// A k-sum of block products, acc + A_k×B_k for ascending k, goes through
// MulAccumulate. While every operand is CSR or CSC the accumulator is a
// CSR block, and each product (a CSRMulCSR result, which drops the
// elements that sum to zero) is merged into it by AddCSR: where both hold
// an element the new value is acc + product, added in that order; an
// element held on one side keeps its value; a sum that is exactly zero is
// dropped. The first dense operand densifies the accumulator, +0 wherever
// the CSR holds nothing, and MulAdd carries on densely from there. So the
// values are bit-identical to MulAdd over the same sequence from a nil
// accumulator, whose dense block holds +0 exactly where the CSR holds no
// element.
package matrix

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// gemmBlock is the cache-tiling factor of the dense kernel. 64×64 float64
// tiles (32 KiB per operand tile) sit comfortably in L1/L2.
const gemmBlock = 64

// parallelThreshold is the minimum result-element count before the dense
// kernel fans out across goroutines; below it the spawn overhead dominates.
// A var so equivalence tests can force the parallel path on small inputs.
var parallelThreshold = 64 * 64 * 4

// sparseFlopsThreshold is the minimum estimated scalar-multiply count before
// a sparse kernel fans out. Sparse products do far less work per output
// element than GEMM, so the gate is on estimated flops, not result size.
var sparseFlopsThreshold = 1 << 15

// kernelWorkers overrides the kernel fan-out width; 0 means GOMAXPROCS.
var kernelWorkers atomic.Int32

// SetKernelWorkers bounds the goroutines a single kernel call fans out to.
// n <= 0 restores the default (GOMAXPROCS). Tests use this to exercise the
// parallel paths at fixed widths; benchmarks use it to pin the serial path.
func SetKernelWorkers(n int) {
	if n < 0 {
		n = 0
	}
	kernelWorkers.Store(int32(n))
}

// KernelWorkers returns the current kernel fan-out width.
func KernelWorkers() int {
	if n := kernelWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Gemm computes C += A×B for dense blocks. It is the stand-in for the
// cublasDgemm / LAPACK dgemm call in the paper's local-multiplication step.
// Dimensions must agree: A is m×k, B is k×n, C is m×n.
func Gemm(c, a, b *Dense) {
	m, ka := a.Dims()
	kb, n := b.Dims()
	cm, cn := c.Dims()
	if ka != kb || cm != m || cn != n {
		panic(fmt.Sprintf("matrix: Gemm: dimension mismatch %dx%d × %dx%d -> %dx%d", m, ka, kb, n, cm, cn))
	}
	if m == 0 || n == 0 || ka == 0 {
		return
	}
	if workers := KernelWorkers(); workers > 1 && m >= 2 && m*n >= parallelThreshold {
		gemmParallel(c, a, b, workers)
		return
	}
	gemmRange(c, a, b, 0, m)
}

// gemmParallel splits the row range of C across workers. Each row of C is
// computed by exactly one goroutine with the same per-element accumulation
// order as the serial path, so results are bit-identical for any width.
// Chunks are whole multiples of four rows, so every worker's rows fall into
// full four-row groups except at the end of C.
func gemmParallel(c, a, b *Dense, workers int) {
	m := a.RowsN
	var wg sync.WaitGroup
	chunk := ((m+workers-1)/workers + 3) &^ 3
	for lo := 0; lo < m; lo += chunk {
		hi := min(lo+chunk, m)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			gemmRange(c, a, b, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// gemmRange computes rows [lo, hi) of C += A×B one 64-wide k-tile at a
// time, four C rows at once. Where A's four rows hold no zero in the
// k-tile and the CPU has AVX, the assembly micro-kernel gemm4x8 covers the
// leading multiple of eight columns; the pure-Go loops cover the rest of
// the columns, the last hi-lo mod 4 rows, and every group with a zero in
// the tile. All paths follow the package's arithmetic contract, so how
// rows are grouped or ranges split never changes a bit of C.
func gemmRange(c, a, b *Dense, lo, hi int) {
	k := a.ColsN
	n := b.ColsN
	simdCols := 0
	if useAVX {
		simdCols = n &^ 7
	}
	for kk := 0; kk < k; kk += gemmBlock {
		kmax := min(kk+gemmBlock, k)
		i := lo
		for ; i+4 <= hi; i += 4 {
			j0 := 0
			if simdCols > 0 && !hasZero4(a, i, kk, kmax) {
				gemm4x8(&c.Data[i*n], n, &a.Data[i*k+kk], k, &b.Data[kk*n], n, kmax-kk, simdCols)
				j0 = simdCols
			}
			if j0 < n {
				gemmRows4(c, a, b, i, kk, kmax, j0)
			}
		}
		for ; i < hi; i++ {
			crow := c.Data[i*n : (i+1)*n]
			for p := kk; p < kmax; p++ {
				axpy(crow, a.Data[i*k+p], b.Data[p*n:(p+1)*n])
			}
		}
	}
}

// hasZero4 reports whether A rows [i, i+4) hold a zero (of either sign) in
// columns [kk, kmax).
func hasZero4(a *Dense, i, kk, kmax int) bool {
	k := a.ColsN
	for r := i; r < i+4; r++ {
		for _, v := range a.Data[r*k+kk : r*k+kmax] {
			if v == 0 {
				return true
			}
		}
	}
	return false
}

// gemmRows4 adds A[i:i+4, kk:kmax]×B[kk:kmax, j0:n] into C[i:i+4, j0:n].
// Each B row slice is streamed once for four C rows (4× less B traffic
// than a row-at-a-time AXPY) with four independent multiply-add chains.
// When one of the four A values at p is zero, the rows are updated one at
// a time so that the zero is skipped on its own.
func gemmRows4(c, a, b *Dense, i, kk, kmax, j0 int) {
	k := a.ColsN
	n := b.ColsN
	a0 := a.Data[i*k:]
	a1 := a.Data[(i+1)*k:]
	a2 := a.Data[(i+2)*k:]
	a3 := a.Data[(i+3)*k:]
	w := n - j0
	c0 := c.Data[i*n+j0:][:w]
	c1 := c.Data[(i+1)*n+j0:][:w]
	c2 := c.Data[(i+2)*n+j0:][:w]
	c3 := c.Data[(i+3)*n+j0:][:w]
	for p := kk; p < kmax; p++ {
		v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
		brow := b.Data[p*n+j0:][:w]
		if v0 == 0 || v1 == 0 || v2 == 0 || v3 == 0 {
			axpy(c0, v0, brow)
			axpy(c1, v1, brow)
			axpy(c2, v2, brow)
			axpy(c3, v3, brow)
			continue
		}
		for j, bv := range brow {
			c0[j] += float64(v0 * bv)
			c1[j] += float64(v1 * bv)
			c2[j] += float64(v2 * bv)
			c3[j] += float64(v3 * bv)
		}
	}
}

// axpy adds av×brow into crow, and nothing at all when av is zero.
func axpy(crow []float64, av float64, brow []float64) {
	if av == 0 {
		return
	}
	crow = crow[:len(brow)]
	for j, bv := range brow {
		crow[j] += float64(av * bv)
	}
}

// CSRMulDense computes C += A×B where A is CSR and B dense — the
// cusparseDcsrmm stand-in. A is m×k, B is k×n, C is m×n dense. Rows are
// fanned out across workers at nnz-balanced boundaries so skewed rows do
// not serialize the call.
func CSRMulDense(c *Dense, a *CSR, b *Dense) {
	m, ka := a.Dims()
	kb, n := b.Dims()
	cm, cn := c.Dims()
	if ka != kb || cm != m || cn != n {
		panic(fmt.Sprintf("matrix: CSRMulDense: dimension mismatch %dx%d × %dx%d -> %dx%d", m, ka, kb, n, cm, cn))
	}
	if m == 0 || n == 0 {
		return
	}
	workers := KernelWorkers()
	if workers > 1 && m >= 2 && a.NNZ()*n >= sparseFlopsThreshold {
		bounds := prefixSplits(a.RowPtr, workers)
		var wg sync.WaitGroup
		for w := 0; w+1 < len(bounds); w++ {
			lo, hi := bounds[w], bounds[w+1]
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				csrMulDenseRange(c, a, b, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
		return
	}
	csrMulDenseRange(c, a, b, 0, m)
}

// csrMulDenseRange computes C rows [lo, hi). Row entries are consumed four
// at a time so one pass over the C row performs four AXPYs, quartering the
// read-modify-write traffic on C that dominates this kernel.
func csrMulDenseRange(c *Dense, a *CSR, b *Dense, lo, hi int) {
	n := b.ColsN
	bd := b.Data
	for i := lo; i < hi; i++ {
		crow := c.Data[i*n : (i+1)*n]
		p := a.RowPtr[i]
		end := a.RowPtr[i+1]
		for ; p+4 <= end; p += 4 {
			v0, v1, v2, v3 := a.Val[p], a.Val[p+1], a.Val[p+2], a.Val[p+3]
			r0 := bd[a.ColIdx[p]*n:][:n]
			r1 := bd[a.ColIdx[p+1]*n:][:n]
			r2 := bd[a.ColIdx[p+2]*n:][:n]
			r3 := bd[a.ColIdx[p+3]*n:][:n]
			for j := range crow {
				crow[j] += float64(v0*r0[j]) + float64(v1*r1[j]) + float64(v2*r2[j]) + float64(v3*r3[j])
			}
		}
		for ; p < end; p++ {
			av := a.Val[p]
			brow := bd[a.ColIdx[p]*n:][:n]
			for j, bv := range brow {
				crow[j] += float64(av * bv)
			}
		}
	}
}

// DenseMulCSC computes C += A×B where A is dense and B is CSC. A is m×k,
// B is k×n, C is m×n dense. The loop is row-blocked: the outer loop walks
// rows of A/C so every C write is sequential and the A row stays cache
// resident, instead of the former column-outer form whose stride-n writes
// touched a new cache line per element.
func DenseMulCSC(c *Dense, a *Dense, b *CSC) {
	m, ka := a.Dims()
	kb, n := b.Dims()
	cm, cn := c.Dims()
	if ka != kb || cm != m || cn != n {
		panic(fmt.Sprintf("matrix: DenseMulCSC: dimension mismatch %dx%d × %dx%d -> %dx%d", m, ka, kb, n, cm, cn))
	}
	if m == 0 || n == 0 {
		return
	}
	workers := KernelWorkers()
	if workers > 1 && m >= 2 && b.NNZ()*m >= sparseFlopsThreshold {
		if workers > m {
			workers = m
		}
		var wg sync.WaitGroup
		chunk := (m + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > m {
				hi = m
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				denseMulCSCRange(c, a, b, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
		return
	}
	denseMulCSCRange(c, a, b, 0, m)
}

// denseMulCSCRange computes C rows [lo, hi): for each row the B columns are
// reduced as dot products against the resident A row, with a two-way
// unrolled accumulator to break the FP dependency chain.
func denseMulCSCRange(c, a *Dense, b *CSC, lo, hi int) {
	ka := a.ColsN
	n := b.ColsN
	for i := lo; i < hi; i++ {
		arow := a.Data[i*ka : (i+1)*ka]
		crow := c.Data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			p := b.ColPtr[j]
			end := b.ColPtr[j+1]
			if p == end {
				continue
			}
			var s0, s1 float64
			for ; p+2 <= end; p += 2 {
				s0 += float64(arow[b.RowIdx[p]] * b.Val[p])
				s1 += float64(arow[b.RowIdx[p+1]] * b.Val[p+1])
			}
			if p < end {
				s0 += float64(arow[b.RowIdx[p]] * b.Val[p])
			}
			crow[j] += s0 + s1
		}
	}
}

// CSRMulCSR computes A×B for two CSR operands, returning a CSR result. The
// classical Gustavson row-merge algorithm; used when both inputs are sparse.
// Rows of A are fanned out across workers at flop-balanced boundaries and
// the per-range partial CSRs are stitched, so the output is identical to
// the serial row-by-row construction for any worker count.
func CSRMulCSR(a, b *CSR) *CSR {
	m, ka := a.Dims()
	kb, n := b.Dims()
	if ka != kb {
		panic(fmt.Sprintf("matrix: CSRMulCSR: dimension mismatch %dx%d × %dx%d", m, ka, kb, n))
	}
	workers := KernelWorkers()
	if workers > 1 && m >= 2 {
		// Per-row work is the number of scalar multiplies: the sum of B-row
		// lengths over the row's entries. Its prefix array gives balanced
		// split points even when nnz is concentrated in a few rows.
		work := make([]int, m+1)
		for i := 0; i < m; i++ {
			w := 0
			for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
				k := a.ColIdx[p]
				w += b.RowPtr[k+1] - b.RowPtr[k]
			}
			work[i+1] = work[i] + w
		}
		if work[m] >= sparseFlopsThreshold {
			bounds := prefixSplits(work, workers)
			parts := make([]*CSR, len(bounds)-1)
			var wg sync.WaitGroup
			for w := 0; w+1 < len(bounds); w++ {
				lo, hi := bounds[w], bounds[w+1]
				if lo >= hi {
					continue
				}
				wg.Add(1)
				go func(w, lo, hi int) {
					defer wg.Done()
					parts[w] = csrMulCSRRange(a, b, lo, hi)
				}(w, lo, hi)
			}
			wg.Wait()
			return stitchCSRParts(m, n, bounds, parts)
		}
	}
	return csrMulCSRRange(a, b, 0, m)
}

// gustavson is the scratch of one csrMulCSRRange call: a dense value row,
// a stamp per column naming the output row that last touched it, and the
// touched-column list. Stamps only grow, so a recycled scratch needs no
// clearing between calls.
type gustavson struct {
	acc   []float64
	mark  []uint64
	stamp uint64
	cols  []int
}

var gustavsonPool = sync.Pool{New: func() any { return new(gustavson) }}

// csrMulCSRRange runs Gustavson on A rows [lo, hi), returning a partial CSR
// whose row r corresponds to global row lo+r. The output arrays are sized
// up front to the range's scalar-multiply count, which bounds its nnz.
func csrMulCSRRange(a, b *CSR, lo, hi int) *CSR {
	n := b.ColsN
	bound := 0
	for p := a.RowPtr[lo]; p < a.RowPtr[hi]; p++ {
		k := a.ColIdx[p]
		bound += b.RowPtr[k+1] - b.RowPtr[k]
	}
	if full := (hi - lo) * n; bound > full {
		bound = full
	}
	out := &CSR{
		RowsN:  hi - lo,
		ColsN:  n,
		RowPtr: make([]int, hi-lo+1),
		ColIdx: make([]int, 0, bound),
		Val:    make([]float64, 0, bound),
	}
	g := gustavsonPool.Get().(*gustavson)
	defer gustavsonPool.Put(g)
	if len(g.mark) < n {
		g.acc = make([]float64, n)
		g.mark = make([]uint64, n)
	}
	acc, mark, cols := g.acc, g.mark, g.cols
	for i := lo; i < hi; i++ {
		g.stamp++
		stamp := g.stamp
		cols = cols[:0]
		for p := a.RowPtr[i]; p < a.RowPtr[i+1]; p++ {
			k := a.ColIdx[p]
			av := a.Val[p]
			for q := b.RowPtr[k]; q < b.RowPtr[k+1]; q++ {
				j := b.ColIdx[q]
				if mark[j] != stamp {
					mark[j] = stamp
					acc[j] = 0
					cols = append(cols, j)
				}
				acc[j] += float64(av * b.Val[q])
			}
		}
		// Deterministic output: ascending column order within the row.
		sortCols(cols)
		for _, j := range cols {
			if acc[j] != 0 {
				out.ColIdx = append(out.ColIdx, j)
				out.Val = append(out.Val, acc[j])
			}
		}
		out.RowPtr[i-lo+1] = len(out.Val)
	}
	g.cols = cols
	return out
}

// stitchCSRParts concatenates per-range partial CSRs into the full result.
func stitchCSRParts(m, n int, bounds []int, parts []*CSR) *CSR {
	total := 0
	for _, p := range parts {
		if p != nil {
			total += len(p.Val)
		}
	}
	out := &CSR{
		RowsN:  m,
		ColsN:  n,
		RowPtr: make([]int, m+1),
		ColIdx: make([]int, 0, total),
		Val:    make([]float64, 0, total),
	}
	for w, part := range parts {
		if part == nil {
			continue
		}
		lo := bounds[w]
		offset := len(out.Val)
		for r := 1; r <= part.RowsN; r++ {
			out.RowPtr[lo+r] = offset + part.RowPtr[r]
		}
		out.ColIdx = append(out.ColIdx, part.ColIdx...)
		out.Val = append(out.Val, part.Val...)
	}
	// Rows past the last non-empty part (or inside empty spans) inherit the
	// running offset.
	for i := 1; i <= m; i++ {
		if out.RowPtr[i] < out.RowPtr[i-1] {
			out.RowPtr[i] = out.RowPtr[i-1]
		}
	}
	return out
}

// prefixSplits returns parts+1 row boundaries over a monotone prefix array
// (RowPtr or a work prefix) such that each span carries roughly equal
// weight. Boundaries are non-decreasing and cover [0, len(prefix)-1).
func prefixSplits(prefix []int, parts int) []int {
	m := len(prefix) - 1
	if parts > m {
		parts = m
	}
	if parts < 1 {
		parts = 1
	}
	bounds := make([]int, parts+1)
	total := prefix[m]
	for w := 1; w < parts; w++ {
		target := int(int64(total) * int64(w) / int64(parts))
		idx := sort.SearchInts(prefix, target)
		if idx > m {
			idx = m
		}
		if idx < bounds[w-1] {
			idx = bounds[w-1]
		}
		bounds[w] = idx
	}
	bounds[parts] = m
	return bounds
}

// hybridSortThreshold is the slice length above which insertion sort's
// O(r²) behavior loses to the stdlib sort; dense-ish Gustavson result rows
// routinely exceed it.
const hybridSortThreshold = 32

// sortCols orders a result row's column indices: insertion sort for the
// short rows that dominate sparse products, stdlib sort beyond the
// threshold.
func sortCols(s []int) {
	if len(s) <= hybridSortThreshold {
		insertionSortInts(s)
		return
	}
	sort.Ints(s)
}

func insertionSortInts(s []int) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// Mul multiplies two blocks of any formats into a fresh block, densifying as
// the formats require. Sparse×sparse stays sparse; any dense operand makes
// the result dense. This is the dispatch used by the engine's local
// multiplication step when a task multiplies a pair of blocks.
func Mul(a, b Block) Block {
	switch av := a.(type) {
	case *Dense:
		switch bv := b.(type) {
		case *Dense:
			_, n := bv.Dims()
			m, _ := av.Dims()
			c := NewDense(m, n)
			Gemm(c, av, bv)
			return c
		case *CSC:
			m, _ := av.Dims()
			_, n := bv.Dims()
			c := NewDense(m, n)
			DenseMulCSC(c, av, bv)
			return c
		case *CSR:
			m, _ := av.Dims()
			_, n := bv.Dims()
			c := NewDense(m, n)
			DenseMulCSC(c, av, NewCSCFromCSR(bv))
			return c
		}
	case *CSR:
		switch bv := b.(type) {
		case *Dense:
			m, _ := av.Dims()
			_, n := bv.Dims()
			c := NewDense(m, n)
			CSRMulDense(c, av, bv)
			return c
		case *CSR:
			return CSRMulCSR(av, bv)
		case *CSC:
			return CSRMulCSR(av, cscToCSR(bv))
		}
	case *CSC:
		return Mul(cscToCSR(av), b)
	}
	panic(fmt.Sprintf("matrix: Mul: unsupported operand formats %v × %v", a.Format(), b.Format()))
}

// MulAdd multiplies a×b and accumulates into the dense accumulator c
// (allocating it from the dense-buffer pool when nil), returning the
// accumulator. This is the shape the k-axis aggregation in a cuboid wants:
// one resident C buffer, many += calls. Callers that can prove the
// accumulator dies (the aggregation merge in core) release it with
// PutDense; accumulators that escape into results simply stay out of the
// pool.
func MulAdd(c *Dense, a, b Block) *Dense {
	m, _ := a.Dims()
	_, n := b.Dims()
	if c == nil {
		c = GetDense(m, n)
	} else if cm, cn := c.Dims(); cm != m || cn != n {
		panic(fmt.Sprintf("matrix: MulAdd: accumulator %dx%d does not match product %dx%d", cm, cn, m, n))
	}
	switch av := a.(type) {
	case *Dense:
		switch bv := b.(type) {
		case *Dense:
			Gemm(c, av, bv)
		case *CSC:
			DenseMulCSC(c, av, bv)
		case *CSR:
			DenseMulCSC(c, av, NewCSCFromCSR(bv))
		}
	case *CSR:
		switch bv := b.(type) {
		case *Dense:
			CSRMulDense(c, av, bv)
		default:
			AddInto(c, Mul(a, b))
		}
	default:
		AddInto(c, Mul(a, b))
	}
	return c
}

// MulAccumulate returns acc + a×b, one k-step of a cuboid's local
// multiplication, keeping the accumulator in the cheapest exact format. A
// nil acc starts a new accumulation. While every operand has been sparse
// (CSR or CSC) the accumulator is a CSR block and each product is merged
// into it with AddCSR. The first dense operand moves the accumulation to a
// dense block for good: a CSR acc is densified into a pooled buffer and
// MulAdd carries on from there. Either way the values are bit-identical to
// MulAdd over the same sequence from a nil accumulator (see "Sparse
// accumulation" in the package comment); only the format may differ.
func MulAccumulate(acc, a, b Block) Block {
	if a.Format() != FormatDense && b.Format() != FormatDense {
		p := Mul(a, b)
		if acc == nil {
			return p
		}
		return Accumulate(acc, p)
	}
	var d *Dense
	if acc != nil {
		d = denseAccumulator(acc)
	}
	return MulAdd(d, a, b)
}

// Accumulate returns acc + p for a non-nil accumulator, added in that
// order. Two CSR blocks merge into a fresh CSR (AddCSR). Otherwise the sum
// is dense: p is added into acc in place when acc is dense, or into a
// pooled densified copy of it. The bits are those of AddInto on the
// densified operands.
func Accumulate(acc, p Block) Block {
	if a, ok := acc.(*CSR); ok {
		if q, ok := p.(*CSR); ok {
			return AddCSR(a, q)
		}
	}
	d := denseAccumulator(acc)
	AddInto(d, p)
	return d
}

// denseAccumulator returns acc itself when it is dense, and otherwise a
// pooled dense copy holding +0 wherever acc stores nothing.
func denseAccumulator(acc Block) *Dense {
	if d, ok := acc.(*Dense); ok {
		return d
	}
	d := GetDense(acc.Dims())
	AddInto(d, acc)
	return d
}

func cscToCSR(m *CSC) *CSR {
	// The CSC arrays reinterpreted are the CSR of the transpose; transposing
	// that CSR recovers the original matrix in CSR form.
	t := &CSR{RowsN: m.ColsN, ColsN: m.RowsN, RowPtr: m.ColPtr, ColIdx: m.RowIdx, Val: m.Val}
	return t.Transpose()
}

// AddInto accumulates src into dst element-wise; dst must be dense and the
// dimensions must match.
func AddInto(dst *Dense, src Block) {
	sr, sc := src.Dims()
	if dst.RowsN != sr || dst.ColsN != sc {
		panic(fmt.Sprintf("matrix: AddInto: dimension mismatch %dx%d += %dx%d", dst.RowsN, dst.ColsN, sr, sc))
	}
	switch s := src.(type) {
	case *Dense:
		for i, v := range s.Data {
			dst.Data[i] += v
		}
	case *CSR:
		for i := 0; i < s.RowsN; i++ {
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				dst.Data[i*dst.ColsN+s.ColIdx[p]] += s.Val[p]
			}
		}
	case *CSC:
		for j := 0; j < s.ColsN; j++ {
			for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
				dst.Data[s.RowIdx[p]*dst.ColsN+j] += s.Val[p]
			}
		}
	default:
		for i := 0; i < sr; i++ {
			for j := 0; j < sc; j++ {
				dst.Data[i*dst.ColsN+j] += src.At(i, j)
			}
		}
	}
}

// Add returns a+b as a fresh dense block.
func Add(a, b Block) *Dense {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		panic(fmt.Sprintf("matrix: Add: dimension mismatch %dx%d + %dx%d", ar, ac, br, bc))
	}
	out := a.Dense()
	AddInto(out, b)
	return out
}

// Sub returns a-b as a fresh dense block.
func Sub(a, b Block) *Dense {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		panic(fmt.Sprintf("matrix: Sub: dimension mismatch %dx%d - %dx%d", ar, ac, br, bc))
	}
	out := a.Dense()
	switch s := b.(type) {
	case *Dense:
		for i, v := range s.Data {
			out.Data[i] -= v
		}
	default:
		bd := b.Dense()
		for i, v := range bd.Data {
			out.Data[i] -= v
		}
	}
	return out
}

// Hadamard returns the element-wise product a∘b as a fresh dense block.
func Hadamard(a, b Block) *Dense {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		panic(fmt.Sprintf("matrix: Hadamard: dimension mismatch %dx%d ∘ %dx%d", ar, ac, br, bc))
	}
	out := a.Dense()
	switch s := b.(type) {
	case *Dense:
		for i, v := range s.Data {
			out.Data[i] *= v
		}
	default:
		bd := b.Dense()
		for i, v := range bd.Data {
			out.Data[i] *= v
		}
	}
	return out
}

// DivElem returns a⊘b element-wise; denominators with magnitude below eps are
// clamped to eps to keep GNMF updates finite, matching the common epsilon
// guard in NMF implementations.
func DivElem(a, b Block, eps float64) *Dense {
	ar, ac := a.Dims()
	br, bc := b.Dims()
	if ar != br || ac != bc {
		panic(fmt.Sprintf("matrix: DivElem: dimension mismatch %dx%d / %dx%d", ar, ac, br, bc))
	}
	out := a.Dense()
	bd, ok := b.(*Dense)
	if !ok {
		bd = b.Dense()
	}
	for i, v := range bd.Data {
		den := v
		if den < eps && den > -eps {
			den = eps
		}
		out.Data[i] /= den
	}
	return out
}

// Scale returns s·a as a fresh dense block.
func Scale(s float64, a Block) *Dense {
	out := a.Dense()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// Transpose returns the transpose of any block, preserving sparsity: sparse
// inputs yield CSR, dense inputs yield dense.
func Transpose(a Block) Block {
	switch v := a.(type) {
	case *Dense:
		return v.Transpose()
	case *CSR:
		return v.Transpose()
	case *CSC:
		return cscToCSR(v).Transpose()
	default:
		return a.Dense().Transpose()
	}
}
