package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveMul is the reference O(mnk) product used to check every kernel.
func naiveMul(a, b *Dense) *Dense {
	m, k := a.Dims()
	_, n := b.Dims()
	c := NewDense(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// gemmRef is Gemm's arithmetic contract spelled out: every C element
// accumulates in ascending k, each multiply and add is rounded on its own,
// and a zero in A contributes nothing, even against an Inf or NaN in B.
func gemmRef(c, a, b *Dense) {
	m, k := a.Dims()
	_, n := b.Dims()
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := c.At(i, j)
			for p := 0; p < k; p++ {
				if av := a.At(i, p); av != 0 {
					s += float64(av * b.At(p, j))
				}
			}
			c.Set(i, j, s)
		}
	}
}

// firstBitDiff returns the first flat index where got and want differ bit
// for bit, or -1. Any NaN matches any NaN: Go leaves the payload of a NaN
// produced from two NaN operands unspecified.
func firstBitDiff(got, want *Dense) int {
	for i, w := range want.Data {
		g := got.Data[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

// adversarialGemm builds Gemm operands that stress the arithmetic
// contract: zeros of both signs scattered through A, −0, ±Inf and NaN in
// a few "poison" rows of B whose A column is mostly zero, and a C that is
// nonzero on entry. Most C elements stay finite, so a kernel that lets a
// zero in A meet an Inf or NaN shows up as a NaN where the reference has
// a number.
func adversarialGemm(rng *rand.Rand, m, k, n int) (c, a, b *Dense) {
	a = RandomDense(rng, m, k)
	b = RandomDense(rng, k, n)
	c = RandomDense(rng, m, n)
	for i := range a.Data {
		switch rng.Intn(10) {
		case 0:
			a.Data[i] = 0
		case 1:
			a.Data[i] = math.Copysign(0, -1)
		}
	}
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1)}
	for p := 0; p < k; p++ {
		if rng.Intn(4) != 0 {
			continue
		}
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				b.Data[p*n+j] = specials[rng.Intn(len(specials))]
			}
		}
		for i := 0; i < m; i++ {
			if rng.Intn(8) != 0 {
				a.Data[i*k+p] = 0
			}
		}
	}
	return c, a, b
}

// cpuAVX records whether this CPU runs the assembly micro-kernel, before
// any test switches it off.
var cpuAVX = useAVX

// checkGemmPaths runs C += A×B through every kernel path (the AVX
// micro-kernel where the CPU has it, and the pure-Go loops) at worker
// widths 1, 2, 3 and 7, and requires each result to match the contract's
// reference bit for bit. Shapes below parallelThreshold fan out only
// under forceParallel.
func checkGemmPaths(t *testing.T, name string, c, a, b *Dense) {
	t.Helper()
	want := c.Clone()
	gemmRef(want, a, b)
	paths := []bool{false}
	if cpuAVX {
		paths = append(paths, true)
	}
	defer func() { useAVX = cpuAVX }()
	for _, avx := range paths {
		useAVX = avx
		for _, w := range []int{1, 2, 3, 7} {
			SetKernelWorkers(w)
			got := c.Clone()
			Gemm(got, a, b)
			if i := firstBitDiff(got, want); i >= 0 {
				t.Fatalf("%s (avx=%v, workers=%d): C[%d] = %v, want %v", name, avx, w, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// gemmShapes covers every edge of the kernel's tiling: m mod 4 != 0,
// n < 8, n mod 8 != 0, and k off a multiple of the 64-wide k-tile.
var gemmShapes = [][3]int{
	{1, 1, 1}, {3, 4, 5}, {4, 1, 8}, {5, 70, 7}, {7, 7, 7}, {8, 3, 9},
	{6, 65, 17}, {13, 64, 24}, {16, 8, 32}, {9, 130, 13}, {65, 130, 67},
}

func TestGemmMatchesNaive(t *testing.T) {
	forceParallel(t)
	rng := rand.New(rand.NewSource(10))
	for _, dims := range gemmShapes {
		m, k, n := dims[0], dims[1], dims[2]
		a := RandomDense(rng, m, k)
		b := RandomDense(rng, k, n)
		checkGemmPaths(t, fmt.Sprintf("random %v, zero C", dims), NewDense(m, n), a, b)
		c, a, b := adversarialGemm(rng, m, k, n)
		checkGemmPaths(t, fmt.Sprintf("adversarial %v", dims), c, a, b)
	}
}

// TestGemmParallelPathMatchesNaive runs shapes large enough to take the
// parallel path under the default gates.
func TestGemmParallelPathMatchesNaive(t *testing.T) {
	t.Cleanup(func() { SetKernelWorkers(0) })
	rng := rand.New(rand.NewSource(11))
	a := RandomDense(rng, 160, 90)
	b := RandomDense(rng, 90, 140)
	checkGemmPaths(t, "random 160x90x140", NewDense(160, 140), a, b)
	c, a, b := adversarialGemm(rng, 157, 131, 139)
	checkGemmPaths(t, "adversarial 157x131x139", c, a, b)
}

// TestGemmZeroAnnihilatesInfRegardlessOfGrouping pins the zero rule for a
// row inside a four-row group: A[0][0] is zero and B[0][0] is +Inf, so
// C[0][0] gets only A[0][1]·B[1][0]. A kernel that skipped p only when all
// four rows were zero computed NaN there at one worker and 2 at two, where
// the row fell out of its group.
func TestGemmZeroAnnihilatesInfRegardlessOfGrouping(t *testing.T) {
	forceParallel(t)
	for _, n := range []int{2, 8, 11} {
		a := NewDense(6, 2)
		for i := range a.Data {
			a.Data[i] = 1
		}
		a.Set(0, 0, 0)
		a.Set(0, 1, 2)
		b := NewDense(2, n)
		for i := range b.Data {
			b.Data[i] = 1
		}
		b.Set(0, 0, math.Inf(1))
		checkGemmPaths(t, fmt.Sprintf("6x2x%d", n), NewDense(6, n), a, b)
		SetKernelWorkers(1)
		c := NewDense(6, n)
		Gemm(c, a, b)
		if c.At(0, 0) != 2 {
			t.Fatalf("n=%d: C[0][0] = %v, want 2", n, c.At(0, 0))
		}
	}
}

// FuzzGemm drives Gemm over random shapes and adversarial values (zeros
// in A against −0, ±Inf and NaN in B, a nonzero C) on every kernel path
// and several worker widths, against the contract's reference.
func FuzzGemm(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), uint8(2))
	f.Add(int64(2), uint8(13), uint8(70), uint8(17))
	f.Add(int64(3), uint8(4), uint8(64), uint8(8))
	f.Add(int64(4), uint8(33), uint8(130), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, m, k, n uint8) {
		forceParallel(t)
		rng := rand.New(rand.NewSource(seed))
		c, a, b := adversarialGemm(rng, 1+int(m%40), 1+int(k), 1+int(n%40))
		checkGemmPaths(t, "fuzz", c, a, b)
	})
}

func TestGemmAccumulates(t *testing.T) {
	a := NewDenseData(1, 1, []float64{2})
	b := NewDenseData(1, 1, []float64{3})
	c := NewDenseData(1, 1, []float64{10})
	Gemm(c, a, b)
	if c.At(0, 0) != 16 {
		t.Fatalf("Gemm must accumulate: got %g, want 16", c.At(0, 0))
	}
}

func TestGemmDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched Gemm did not panic")
		}
	}()
	Gemm(NewDense(2, 2), NewDense(2, 3), NewDense(2, 2))
}

func TestCSRMulDenseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := RandomSparse(rng, 20, 30, 0.2)
	b := RandomDense(rng, 30, 10)
	c := NewDense(20, 10)
	CSRMulDense(c, a, b)
	if !c.EqualApprox(naiveMul(a.Dense(), b), 1e-9) {
		t.Fatal("CSRMulDense mismatch")
	}
}

func TestDenseMulCSCMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := RandomDense(rng, 12, 18)
	b := NewCSCFromDense(RandomSparse(rng, 18, 9, 0.3).Dense())
	c := NewDense(12, 9)
	DenseMulCSC(c, a, b)
	if !c.EqualApprox(naiveMul(a, b.Dense()), 1e-9) {
		t.Fatal("DenseMulCSC mismatch")
	}
}

func TestCSRMulCSRMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := RandomSparse(rng, 15, 25, 0.15)
	b := RandomSparse(rng, 25, 10, 0.2)
	got := CSRMulCSR(a, b)
	if !got.Dense().EqualApprox(naiveMul(a.Dense(), b.Dense()), 1e-9) {
		t.Fatal("CSRMulCSR mismatch")
	}
	// Column indices must be sorted within rows for downstream kernels.
	for i := 0; i < got.RowsN; i++ {
		for p := got.RowPtr[i] + 1; p < got.RowPtr[i+1]; p++ {
			if got.ColIdx[p-1] >= got.ColIdx[p] {
				t.Fatalf("row %d column indices not strictly increasing", i)
			}
		}
	}
}

// TestMulAllFormatPairs is the paper's format matrix: every combination of
// dense/CSR/CSC operands must produce the same product.
func TestMulAllFormatPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	ad := RandomSparse(rng, 9, 13, 0.4).Dense()
	bd := RandomSparse(rng, 13, 7, 0.4).Dense()
	want := naiveMul(ad, bd)
	as := []Block{ad, NewCSRFromDense(ad), NewCSCFromDense(ad)}
	bs := []Block{bd, NewCSRFromDense(bd), NewCSCFromDense(bd)}
	for _, a := range as {
		for _, b := range bs {
			got := Mul(a, b)
			if !got.Dense().EqualApprox(want, 1e-9) {
				t.Errorf("Mul(%v, %v) mismatch", a.Format(), b.Format())
			}
		}
	}
}

func TestMulAddAccumulatesAcrossK(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// C = A1×B1 + A2×B2 computed through the accumulator path.
	a1, b1 := RandomDense(rng, 6, 4), RandomDense(rng, 4, 5)
	a2, b2 := RandomDense(rng, 6, 3), RandomDense(rng, 3, 5)
	acc := MulAdd(nil, a1, b1)
	acc = MulAdd(acc, a2, b2)
	want := Add(naiveMul(a1, b1), naiveMul(a2, b2))
	if !acc.EqualApprox(want, 1e-9) {
		t.Fatal("MulAdd accumulation mismatch")
	}
}

func TestMulAddSparseLeft(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := RandomSparse(rng, 8, 10, 0.3)
	b := RandomDense(rng, 10, 6)
	acc := MulAdd(nil, a, b)
	if !acc.EqualApprox(naiveMul(a.Dense(), b), 1e-9) {
		t.Fatal("MulAdd sparse-left mismatch")
	}
}

func TestMulAddWrongAccumulatorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-shape accumulator did not panic")
		}
	}()
	MulAdd(NewDense(2, 2), NewDense(3, 3), NewDense(3, 3))
}

func TestAddSubHadamard(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	if got := Add(a, b); !got.Equal(NewDenseData(2, 2, []float64{6, 8, 10, 12})) {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a); !got.Equal(NewDenseData(2, 2, []float64{4, 4, 4, 4})) {
		t.Fatalf("Sub = %v", got)
	}
	if got := Hadamard(a, b); !got.Equal(NewDenseData(2, 2, []float64{5, 12, 21, 32})) {
		t.Fatalf("Hadamard = %v", got)
	}
}

func TestAddIntoSparseFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	base := RandomDense(rng, 6, 6)
	s := RandomSparse(rng, 6, 6, 0.3)
	want := Add(base, s.Dense())

	gotCSR := base.Clone()
	AddInto(gotCSR, s)
	if !gotCSR.EqualApprox(want, 1e-12) {
		t.Fatal("AddInto CSR mismatch")
	}
	gotCSC := base.Clone()
	AddInto(gotCSC, NewCSCFromCSR(s))
	if !gotCSC.EqualApprox(want, 1e-12) {
		t.Fatal("AddInto CSC mismatch")
	}
}

func TestDivElemEpsilonGuard(t *testing.T) {
	a := NewDenseData(1, 3, []float64{1, 2, 3})
	b := NewDenseData(1, 3, []float64{2, 0, 1e-12})
	eps := 1e-9
	got := DivElem(a, b, eps)
	if got.At(0, 0) != 0.5 {
		t.Fatalf("plain division wrong: %g", got.At(0, 0))
	}
	if want := 2 / eps; got.At(0, 1) != want {
		t.Fatalf("zero denominator not clamped: %g, want %g", got.At(0, 1), want)
	}
	if want := 3 / eps; got.At(0, 2) != want {
		t.Fatalf("tiny denominator not clamped: %g, want %g", got.At(0, 2), want)
	}
}

func TestScale(t *testing.T) {
	a := NewDenseData(1, 2, []float64{3, -4})
	if got := Scale(-2, a); !got.Equal(NewDenseData(1, 2, []float64{-6, 8})) {
		t.Fatalf("Scale = %v", got)
	}
}

func TestTransposeAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	d := RandomSparse(rng, 5, 9, 0.4).Dense()
	want := d.Transpose()
	for _, b := range []Block{d, NewCSRFromDense(d), NewCSCFromDense(d)} {
		got := Transpose(b)
		if !got.Dense().Equal(want) {
			t.Errorf("Transpose(%v) mismatch", b.Format())
		}
	}
}

// Property: (A×B)ᵀ = Bᵀ×Aᵀ across random shapes and formats.
func TestMulTransposeIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := RandomSparse(rng, m, k, 0.5)
		b := RandomDense(rng, k, n)
		left := Transpose(Mul(a, b)).Dense()
		right := Mul(Transpose(b), Transpose(a)).Dense()
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: A×(B+C) = A×B + A×C (distributivity) for dense operands.
func TestMulDistributivityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := RandomDense(rng, m, k)
		b := RandomDense(rng, k, n)
		c := RandomDense(rng, k, n)
		left := Mul(a, Add(b, c)).Dense()
		right := Add(Mul(a, b), Mul(a, c))
		return left.EqualApprox(right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: identity is neutral: I×A = A×I = A.
func TestMulIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(10), 1+rng.Intn(10)
		a := RandomDense(rng, m, n)
		im := identity(m)
		in := identity(n)
		return Mul(im, a).Dense().EqualApprox(a, 1e-12) &&
			Mul(a, in).Dense().EqualApprox(a, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func identity(n int) *Dense {
	d := NewDense(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, i, 1)
	}
	return d
}

// Kernel benchmarks (including seed-vs-current regression comparisons)
// live in kernels_bench_test.go.
