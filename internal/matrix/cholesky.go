package matrix

import (
	"fmt"
	"math"
)

// Cholesky factors a symmetric positive-definite matrix A = L·Lᵀ and
// returns the lower-triangular L. Cholesky factorization is one of the
// paper's motivating applications (§1); locally it is also the solver ALS
// needs for its r×r normal equations. A non-positive-definite input
// returns an error rather than NaNs.
func Cholesky(a *Dense) (*Dense, error) {
	n, m := a.Dims()
	if n != m {
		return nil, fmt.Errorf("matrix: Cholesky: matrix is %dx%d, not square", n, m)
	}
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= float64(l.At(i, k) * l.At(j, k))
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("matrix: Cholesky: not positive definite at pivot %d (%g)", i, sum)
				}
				l.Set(i, i, math.Sqrt(sum))
			} else {
				l.Set(i, j, sum/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveCholesky solves A·X = B for X given the Cholesky factor L of A
// (A = L·Lᵀ), by forward then backward substitution, column by column of B.
func SolveCholesky(l *Dense, b *Dense) (*Dense, error) {
	n, m := l.Dims()
	if n != m {
		return nil, fmt.Errorf("matrix: SolveCholesky: factor is %dx%d, not square", n, m)
	}
	br, bc := b.Dims()
	if br != n {
		return nil, fmt.Errorf("matrix: SolveCholesky: B has %d rows, want %d", br, n)
	}
	x := NewDense(n, bc)
	y := make([]float64, n)
	for c := 0; c < bc; c++ {
		// Forward: L·y = b.
		for i := 0; i < n; i++ {
			sum := b.At(i, c)
			for k := 0; k < i; k++ {
				sum -= float64(l.At(i, k) * y[k])
			}
			y[i] = sum / l.At(i, i)
		}
		// Backward: Lᵀ·x = y.
		for i := n - 1; i >= 0; i-- {
			sum := y[i]
			for k := i + 1; k < n; k++ {
				sum -= float64(l.At(k, i) * x.At(k, c))
			}
			x.Set(i, c, sum/l.At(i, i))
		}
	}
	return x, nil
}

// SolveSPD solves A·X = B for a symmetric positive-definite A in one call.
func SolveSPD(a, b *Dense) (*Dense, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	return SolveCholesky(l, b)
}
