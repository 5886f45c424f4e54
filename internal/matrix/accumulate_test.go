package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// storedSparse returns an r×c CSR whose entries are drawn from small binary
// fractions, so sums are exact and often cancel, with stored +0, −0, ±Inf
// and NaN mixed in and some rows left empty.
func storedSparse(rng *rand.Rand, r, c int, density float64) *CSR {
	vals := []float64{1, -1, 2, -2, 0.5, -0.5}
	odd := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	m := &CSR{RowsN: r, ColsN: c, RowPtr: make([]int, r+1)}
	for i := 0; i < r; i++ {
		if rng.Intn(5) != 0 {
			for j := 0; j < c; j++ {
				if rng.Float64() >= density {
					continue
				}
				v := vals[rng.Intn(len(vals))]
				if rng.Intn(10) == 0 {
					v = odd[rng.Intn(len(odd))]
				}
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

// csrBitsDiff compares structure and value bits (any NaN matches any NaN).
func csrBitsDiff(got, want *CSR) string {
	if fmt.Sprint(got.RowsN, got.ColsN, got.RowPtr, got.ColIdx) != fmt.Sprint(want.RowsN, want.ColsN, want.RowPtr, want.ColIdx) {
		return fmt.Sprintf("structure %v %v, want %v %v", got.RowPtr, got.ColIdx, want.RowPtr, want.ColIdx)
	}
	for i, w := range want.Val {
		g := got.Val[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return fmt.Sprintf("value %d = %v, want %v", i, g, w)
		}
	}
	return ""
}

// TestAddCSRMatchesDenseAdd: the sorted row merge equals densifying a,
// adding b with AddInto and compacting, bit for bit, with cancellation,
// stored zeros and non-finite values in play.
func TestAddCSRMatchesDenseAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 200; trial++ {
		r, c := 1+rng.Intn(9), 1+rng.Intn(9)
		a := storedSparse(rng, r, c, rng.Float64())
		b := storedSparse(rng, r, c, rng.Float64())
		d := a.Dense()
		AddInto(d, b)
		if diff := csrBitsDiff(AddCSR(a, b), NewCSRFromDense(d)); diff != "" {
			t.Fatalf("trial %d (%dx%d): %s", trial, r, c, diff)
		}
	}
}

func TestAddCSRDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AddCSR(NewCSR(2, 3, nil, nil, nil), NewCSR(3, 2, nil, nil, nil))
}

// TestMulAccumulateMatchesMulAdd: over k-sequences of CSR, CSC and dense
// operands, MulAccumulate holds MulAdd's bits, stays CSR exactly while
// every operand is sparse, and its CSR stores no zero.
func TestMulAccumulateMatchesMulAdd(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 300; trial++ {
		m, n := 1+rng.Intn(12), 1+rng.Intn(12)
		var acc Block
		var ref *Dense
		allSparse := true
		for step := 1 + rng.Intn(5); step > 0; step-- {
			k := 1 + rng.Intn(12)
			ops := [2]Block{}
			for s, dims := range [2][2]int{{m, k}, {k, n}} {
				csr := storedSparse(rng, dims[0], dims[1], 0.1+0.5*rng.Float64())
				switch rng.Intn(5) {
				case 0:
					ops[s] = csr.Dense()
					allSparse = false
				case 1:
					ops[s] = NewCSCFromCSR(csr)
				default:
					ops[s] = csr
				}
			}
			acc = MulAccumulate(acc, ops[0], ops[1])
			ref = MulAdd(ref, ops[0], ops[1])
			if got := acc.Format() == FormatCSR; got != allSparse {
				t.Fatalf("trial %d: accumulator format %v with all-sparse operands %v", trial, acc.Format(), allSparse)
			}
			if i := firstBitDiff(acc.Dense(), ref); i >= 0 {
				t.Fatalf("trial %d: C[%d] = %v, want %v", trial, i, acc.Dense().Data[i], ref.Data[i])
			}
		}
		if csr, ok := acc.(*CSR); ok {
			for _, v := range csr.Val {
				if v == 0 {
					t.Fatalf("trial %d: CSR accumulator stores a zero", trial)
				}
			}
		}
	}
}
