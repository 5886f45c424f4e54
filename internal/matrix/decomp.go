package matrix

import (
	"fmt"
	"math"
)

// LU computes the LU factorization with partial pivoting P·A = L·U of a
// square matrix — another of the paper's motivating applications (§1). It
// returns L (unit lower triangular), U (upper triangular), the permutation
// as a row-index slice (perm[i] is the source row of row i), and an error
// for singular inputs.
func LU(a *Dense) (l, u *Dense, perm []int, err error) {
	n, m := a.Dims()
	if n != m {
		return nil, nil, nil, fmt.Errorf("matrix: LU: matrix is %dx%d, not square", n, m)
	}
	u = a.Clone()
	l = NewDense(n, n)
	perm = make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		// Partial pivot: the largest magnitude in the column at or below
		// the diagonal.
		pivot := col
		best := math.Abs(u.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(u.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 {
			return nil, nil, nil, fmt.Errorf("matrix: LU: singular at column %d", col)
		}
		if pivot != col {
			swapRows(u, pivot, col)
			swapRowsUpTo(l, pivot, col, col)
			perm[pivot], perm[col] = perm[col], perm[pivot]
		}
		l.Set(col, col, 1)
		inv := 1 / u.At(col, col)
		for r := col + 1; r < n; r++ {
			f := u.At(r, col) * inv
			l.Set(r, col, f)
			// The eliminated entry is exactly zero by construction; set it
			// directly rather than leaving float residue below the diagonal.
			u.Set(r, col, 0)
			if f == 0 {
				continue
			}
			for c := col + 1; c < n; c++ {
				u.Set(r, c, u.At(r, c)-float64(f*u.At(col, c)))
			}
		}
	}
	return l, u, perm, nil
}

func swapRows(d *Dense, a, b int) {
	ra, rb := d.Row(a), d.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func swapRowsUpTo(d *Dense, a, b, upTo int) {
	ra, rb := d.Row(a), d.Row(b)
	for i := 0; i < upTo; i++ {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// SolveLU solves A·x = b given the LU factorization of A.
func SolveLU(l, u *Dense, perm []int, b *Dense) (*Dense, error) {
	n, _ := l.Dims()
	br, bc := b.Dims()
	if br != n {
		return nil, fmt.Errorf("matrix: SolveLU: B has %d rows, want %d", br, n)
	}
	x := NewDense(n, bc)
	y := make([]float64, n)
	for c := 0; c < bc; c++ {
		// Forward: L·y = P·b.
		for i := 0; i < n; i++ {
			sum := b.At(perm[i], c)
			for k := 0; k < i; k++ {
				sum -= float64(l.At(i, k) * y[k])
			}
			y[i] = sum
		}
		// Backward: U·x = y.
		for i := n - 1; i >= 0; i-- {
			sum := y[i]
			for k := i + 1; k < n; k++ {
				sum -= float64(u.At(i, k) * x.At(k, c))
			}
			x.Set(i, c, sum/u.At(i, i))
		}
	}
	return x, nil
}

// JacobiEigen diagonalizes a symmetric matrix with cyclic Jacobi rotations,
// returning eigenvalues (descending) and the matching orthonormal
// eigenvectors as columns. It is the small-matrix eigensolver behind the
// randomized SVD.
func JacobiEigen(a *Dense, maxSweeps int) (vals []float64, vecs *Dense, err error) {
	n, m := a.Dims()
	if n != m {
		return nil, nil, fmt.Errorf("matrix: JacobiEigen: matrix is %dx%d, not square", n, m)
	}
	if maxSweeps <= 0 {
		maxSweeps = 64
	}
	s := a.Clone()
	v := NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const tol = 1e-14
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(s.At(i, j) * s.At(i, j))
			}
		}
		if off < tol {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := s.At(p, q)
				if math.Abs(apq) < tol/float64(n*n) {
					continue
				}
				app, aqq := s.At(p, p), s.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				c := 1 / math.Sqrt(float64(t*t)+1)
				sn := t * c
				rotate(s, v, p, q, c, sn)
			}
		}
	}
	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = s.At(i, i)
	}
	// Sort descending, permuting eigenvector columns along.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && vals[order[j-1]] < vals[order[j]]; j-- {
			order[j-1], order[j] = order[j], order[j-1]
		}
	}
	sorted := make([]float64, n)
	vecs = NewDense(n, n)
	for out, idx := range order {
		sorted[out] = vals[idx]
		for r := 0; r < n; r++ {
			vecs.Set(r, out, v.At(r, idx))
		}
	}
	return sorted, vecs, nil
}

// rotate applies the Jacobi rotation (p, q, c, s) to S (two-sided) and
// accumulates it into V.
func rotate(s, v *Dense, p, q int, c, sn float64) {
	n, _ := s.Dims()
	for k := 0; k < n; k++ {
		skp, skq := s.At(k, p), s.At(k, q)
		s.Set(k, p, float64(c*skp)-float64(sn*skq))
		s.Set(k, q, float64(sn*skp)+float64(c*skq))
	}
	for k := 0; k < n; k++ {
		spk, sqk := s.At(p, k), s.At(q, k)
		s.Set(p, k, float64(c*spk)-float64(sn*sqk))
		s.Set(q, k, float64(sn*spk)+float64(c*sqk))
	}
	for k := 0; k < n; k++ {
		vkp, vkq := v.At(k, p), v.At(k, q)
		v.Set(k, p, float64(c*vkp)-float64(sn*vkq))
		v.Set(k, q, float64(sn*vkp)+float64(c*vkq))
	}
}

// GramSchmidtQR orthonormalizes the columns of A (modified Gram–Schmidt),
// returning Q with orthonormal columns (rank-deficient columns are dropped).
func GramSchmidtQR(a *Dense) *Dense {
	n, m := a.Dims()
	cols := make([][]float64, 0, m)
	for j := 0; j < m; j++ {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = a.At(i, j)
		}
		for _, u := range cols {
			var dot float64
			for i := range v {
				dot += float64(v[i] * u[i])
			}
			for i := range v {
				v[i] -= float64(dot * u[i])
			}
		}
		var norm float64
		for _, x := range v {
			norm += float64(x * x)
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			continue // dependent column
		}
		for i := range v {
			v[i] /= norm
		}
		cols = append(cols, v)
	}
	q := NewDense(n, len(cols))
	for j, u := range cols {
		for i := 0; i < n; i++ {
			q.Set(i, j, u[i])
		}
	}
	return q
}
