package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"distme/internal/bmat"
	"distme/internal/matrix"
	"distme/internal/metrics"
	"distme/internal/shuffle"
)

// The cuboid executor keeps sparse×sparse partials in CSR through the local
// multiply and the aggregation. The tests here hold it to the executor it
// replaced: every partial a dense MulAdd accumulator, merged by AddInto in
// cuboid order and compacted at the end. Both must give the same blocks in
// the same formats with the same bits, and charge the same aggregation
// bytes.

// refCuboidMultiply is the dense-accumulator executor: it returns C = A×B
// under params and the aggregation bytes it charges (each partial at its
// compact size when R > 1).
func refCuboidMultiply(a, b *bmat.BlockMatrix, params Params) (*bmat.BlockMatrix, int64) {
	s := ShapeOf(a, b)
	out := bmat.New(a.Rows, b.Cols, a.BlockSize)
	var bytes int64
	for p := 0; p < params.P; p++ {
		ilo, ihi := shuffle.GridSpan(p, s.I, params.P)
		for q := 0; q < params.Q; q++ {
			jlo, jhi := shuffle.GridSpan(q, s.J, params.Q)
			for r := 0; r < params.R; r++ {
				klo, khi := shuffle.GridSpan(r, s.K, params.R)
				for i := ilo; i < ihi; i++ {
					for j := jlo; j < jhi; j++ {
						var acc *matrix.Dense
						for k := klo; k < khi; k++ {
							ab, bb := a.Block(i, k), b.Block(k, j)
							if ab != nil && bb != nil {
								acc = matrix.MulAdd(acc, ab, bb)
							}
						}
						if acc == nil {
							continue
						}
						if params.R > 1 {
							bytes += refCompactSizeBytes(acc)
						}
						if existing := out.Block(i, j); existing != nil {
							matrix.AddInto(existing.(*matrix.Dense), acc)
						} else {
							out.SetBlock(i, j, acc)
						}
					}
				}
			}
		}
	}
	for _, key := range out.Keys() {
		d := out.Block(key.I, key.J).(*matrix.Dense)
		if matrix.Sparsity(d) < sparseFormatThreshold {
			if csr := matrix.NewCSRFromDense(d); csr.SizeBytes() < d.SizeBytes() {
				out.SetBlock(key.I, key.J, csr)
			}
		}
	}
	return out, bytes
}

// refCompactSizeBytes is the dense-block format rule the executor charged
// aggregation bytes by.
func refCompactSizeBytes(d *matrix.Dense) int64 {
	if matrix.Sparsity(d) < sparseFormatThreshold {
		if sparse := int64(d.NNZ())*16 + int64(d.RowsN+1)*8; sparse < d.SizeBytes() {
			return sparse
		}
	}
	return d.SizeBytes()
}

// Block-format plans for adversarialOperands: which format the blocks on
// inner index k take.
const (
	planMixed           = iota // any format per block
	planSparse                 // CSR or CSC only
	planSparseThenDense        // sparse below the middle k, dense from it on
	planDenseThenSparse        // dense below the middle k, sparse from it on
	numPlans
)

// adversarialOperands builds conformable block matrices A (m×kk) and B
// (kk×n) whose values stress the accumulation: small binary fractions, so
// products are exact and sums often cancel to exactly zero; stored +0 and
// −0, ±Inf and NaN when specials is set; missing blocks, stored empty
// blocks and empty rows.
func adversarialOperands(rng *rand.Rand, m, kk, n, bs, plan int, specials bool) (*bmat.BlockMatrix, *bmat.BlockMatrix) {
	a := bmat.New(m, kk, bs)
	b := bmat.New(kk, n, bs)
	mid := (a.JB + 1) / 2
	format := func(k int) string {
		switch {
		case plan == planSparse,
			plan == planSparseThenDense && k < mid,
			plan == planDenseThenSparse && k >= mid:
			return []string{"csr", "csc"}[rng.Intn(2)]
		case plan == planMixed:
			return []string{"csr", "csc", "dense"}[rng.Intn(3)]
		}
		return "dense"
	}
	fill := func(mat *bmat.BlockMatrix, i, j, k int) {
		switch rng.Intn(10) {
		case 0:
			return // missing block
		case 1:
			r, c := mat.BlockDims(i, j)
			mat.SetBlock(i, j, matrix.NewCSR(r, c, nil, nil, nil)) // stored, empty
			return
		}
		r, c := mat.BlockDims(i, j)
		mat.SetBlock(i, j, adversarialBlock(rng, r, c, format(k), specials))
	}
	for i := 0; i < a.IB; i++ {
		for k := 0; k < a.JB; k++ {
			fill(a, i, k, k)
		}
	}
	for k := 0; k < b.IB; k++ {
		for j := 0; j < b.JB; j++ {
			fill(b, k, j, k)
		}
	}
	return a, b
}

// adversarialBlock returns an r×c block in the given format. Sparse blocks
// store every entry drawn, zeros and −0 included, so stored zeros reach
// the kernels.
func adversarialBlock(rng *rand.Rand, r, c int, format string, specials bool) matrix.Block {
	vals := []float64{1, -1, 2, -2, 0.5, -0.5, 3, -3}
	odd := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	density := []float64{0.15, 0.35, 0.7}[rng.Intn(3)]
	d := matrix.NewDense(r, c)
	stored := make([]bool, r*c)
	for i := 0; i < r; i++ {
		if rng.Intn(4) == 0 {
			continue // empty row
		}
		for j := 0; j < c; j++ {
			if rng.Float64() >= density {
				continue
			}
			v := vals[rng.Intn(len(vals))]
			if specials && rng.Intn(12) == 0 {
				v = odd[rng.Intn(len(odd))]
			}
			d.Data[i*c+j] = v
			stored[i*c+j] = true
		}
	}
	if format == "dense" {
		return d
	}
	csr := &matrix.CSR{RowsN: r, ColsN: c, RowPtr: make([]int, r+1)}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if stored[i*c+j] {
				csr.ColIdx = append(csr.ColIdx, j)
				csr.Val = append(csr.Val, d.Data[i*c+j])
			}
		}
		csr.RowPtr[i+1] = len(csr.Val)
	}
	if format == "csc" {
		return matrix.NewCSCFromCSR(csr)
	}
	return csr
}

// sameFloatBits reports bitwise equality, any NaN matching any NaN.
func sameFloatBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// blockBitsDiff describes the first difference between two blocks in
// format, structure or bits, or returns "" when they are identical.
func blockBitsDiff(got, want matrix.Block) string {
	if got.Format() != want.Format() {
		return fmt.Sprintf("format %v, want %v", got.Format(), want.Format())
	}
	switch w := want.(type) {
	case *matrix.Dense:
		g := got.(*matrix.Dense)
		for i, v := range w.Data {
			if !sameFloatBits(g.Data[i], v) {
				return fmt.Sprintf("element %d = %v, want %v", i, g.Data[i], v)
			}
		}
	case *matrix.CSR:
		g := got.(*matrix.CSR)
		if fmt.Sprint(g.RowPtr, g.ColIdx) != fmt.Sprint(w.RowPtr, w.ColIdx) {
			return fmt.Sprintf("structure %v %v, want %v %v", g.RowPtr, g.ColIdx, w.RowPtr, w.ColIdx)
		}
		for i, v := range w.Val {
			if !sameFloatBits(g.Val[i], v) {
				return fmt.Sprintf("value %d = %v, want %v", i, g.Val[i], v)
			}
		}
	default:
		return fmt.Sprintf("unexpected format %v", want.Format())
	}
	return ""
}

// checkAgainstDenseReference runs MultiplyCuboid at aggregation widths 1,
// 2 and 3 and requires the reference's blocks, formats, bits and
// aggregation bytes.
func checkAgainstDenseReference(t *testing.T, name string, a, b *bmat.BlockMatrix, params Params) {
	t.Helper()
	want, wantBytes := refCuboidMultiply(a, b, params)
	for _, workers := range []int{1, 2, 3} {
		env := testEnv(t)
		env.AggregationWorkers = workers
		got, err := MultiplyCuboid(a, b, params, env)
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if n := env.recorder().Bytes(metrics.StepAggregation); n != wantBytes {
			t.Fatalf("%s workers=%d: aggregation bytes %d, want %d", name, workers, n, wantBytes)
		}
		if got.NumBlocks() != want.NumBlocks() {
			t.Fatalf("%s workers=%d: %d blocks, want %d", name, workers, got.NumBlocks(), want.NumBlocks())
		}
		for _, key := range want.Keys() {
			g := got.Block(key.I, key.J)
			if g == nil {
				t.Fatalf("%s workers=%d: block %v missing", name, workers, key)
			}
			if d := blockBitsDiff(g, want.Block(key.I, key.J)); d != "" {
				t.Fatalf("%s workers=%d: block %v: %s", name, workers, key, d)
			}
		}
	}
}

// sparseAccumParams covers R = 1 (partials are final blocks) and R > 1
// (partials merge across cuboids) over a 4×3×5 block grid.
var sparseAccumParams = []Params{{1, 1, 1}, {2, 3, 1}, {1, 1, 5}, {2, 2, 2}, {3, 1, 3}, {4, 3, 5}}

// TestSparseAccumulationMatchesDenseReference: every block-format plan,
// with and without Inf/NaN/±0 values, at R = 1 and R > 1 and aggregation
// widths 1–3, matches the dense-accumulator executor bit for bit.
func TestSparseAccumulationMatchesDenseReference(t *testing.T) {
	for plan := 0; plan < numPlans; plan++ {
		for _, specials := range []bool{false, true} {
			for _, params := range sparseAccumParams {
				rng := rand.New(rand.NewSource(int64(700 + plan*10)))
				a, b := adversarialOperands(rng, 15, 19, 11, 4, plan, specials)
				name := fmt.Sprintf("plan=%d specials=%v params=%v", plan, specials, params)
				checkAgainstDenseReference(t, name, a, b, params)
			}
		}
	}
}

// TestSparseAccumulationCancelsToEmptyBlock: a k-sum that cancels to
// exactly zero everywhere leaves a stored empty CSR block, as the dense
// executor's all-zero accumulator compacted to.
func TestSparseAccumulationCancelsToEmptyBlock(t *testing.T) {
	a := bmat.New(4, 8, 4)
	b := bmat.New(8, 4, 4)
	id := matrix.NewCSR(4, 4, []int{0, 1, 2, 3}, []int{0, 1, 2, 3}, []float64{1, 1, 1, 1})
	neg := matrix.NewCSR(4, 4, []int{0, 1, 2, 3}, []int{0, 1, 2, 3}, []float64{-1, -1, -1, -1})
	a.SetBlock(0, 0, id)
	a.SetBlock(0, 1, id)
	b.SetBlock(0, 0, id)
	b.SetBlock(1, 0, neg)
	for _, params := range []Params{{1, 1, 1}, {1, 1, 2}} {
		checkAgainstDenseReference(t, fmt.Sprintf("params=%v", params), a, b, params)
		got, err := MultiplyCuboid(a, b, params, testEnv(t))
		if err != nil {
			t.Fatal(err)
		}
		if blk := got.Block(0, 0); blk == nil || blk.Format() != matrix.FormatCSR || blk.NNZ() != 0 {
			t.Fatalf("params=%v: block (0,0) = %v, want a stored empty CSR", params, blk)
		}
	}
}

// TestCompactSizeBytesMatchesDenseRule: a CSR partial is charged what its
// densified form was charged, on both sides of the density threshold.
func TestCompactSizeBytesMatchesDenseRule(t *testing.T) {
	rng := rand.New(rand.NewSource(720))
	for _, density := range []float64{0, 0.05, 0.3, 0.39, 0.41, 0.9} {
		for _, dims := range [][2]int{{1, 1}, {3, 7}, {16, 16}, {40, 9}} {
			csr := matrix.RandomSparse(rng, dims[0], dims[1], density)
			d := csr.Dense()
			if got, want := compactSizeBytes(csr), refCompactSizeBytes(d); got != want {
				t.Fatalf("%v@%v: CSR charged %d, dense rule %d", dims, density, got, want)
			}
			if got, want := compactSizeBytes(d), refCompactSizeBytes(d); got != want {
				t.Fatalf("%v@%v: dense charged %d, rule %d", dims, density, got, want)
			}
		}
	}
}

// FuzzSparseAccumulate drives the executor over random shapes, block
// sizes, format plans and partitionings against the dense-accumulator
// reference.
func FuzzSparseAccumulate(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(19), uint8(11), uint8(4), uint8(planSparse), uint8(2), uint8(2), uint8(3))
	f.Add(int64(2), uint8(9), uint8(30), uint8(9), uint8(3), uint8(planSparseThenDense), uint8(1), uint8(1), uint8(5))
	f.Add(int64(3), uint8(20), uint8(12), uint8(7), uint8(5), uint8(planDenseThenSparse), uint8(3), uint8(2), uint8(2))
	f.Add(int64(4), uint8(6), uint8(6), uint8(6), uint8(2), uint8(planMixed), uint8(3), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, m, k, n, bs, plan, p, q, r uint8) {
		rng := rand.New(rand.NewSource(seed))
		blockSize := 1 + int(bs%6)
		a, b := adversarialOperands(rng, 1+int(m%24), 1+int(k%24), 1+int(n%24), blockSize, int(plan%numPlans), seed%2 == 0)
		s := ShapeOf(a, b)
		params := Params{P: 1 + int(p)%s.I, Q: 1 + int(q)%s.J, R: 1 + int(r)%s.K}
		checkAgainstDenseReference(t, fmt.Sprintf("seed=%d params=%v", seed, params), a, b, params)
	})
}
