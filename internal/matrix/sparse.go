package matrix

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row block: for row i the stored entries are
// ColIdx[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]], column indices
// strictly increasing within a row. This is the format the paper feeds to
// cusparseDcsrmm for sparse local multiplication.
type CSR struct {
	RowsN, ColsN int
	RowPtr       []int
	ColIdx       []int
	Val          []float64
}

// NewCSR builds a CSR block from triplet data. Entries may arrive in any
// order; duplicates are summed. Indices out of range panic.
func NewCSR(rows, cols int, rowIdx, colIdx []int, val []float64) *CSR {
	if len(rowIdx) != len(colIdx) || len(rowIdx) != len(val) {
		panic("matrix: NewCSR: triplet slices must have equal length")
	}
	type trip struct {
		r, c int
		v    float64
	}
	ts := make([]trip, len(val))
	for i := range val {
		r, c := rowIdx[i], colIdx[i]
		if r < 0 || r >= rows || c < 0 || c >= cols {
			panic(fmt.Sprintf("matrix: NewCSR: entry (%d, %d) out of range %dx%d", r, c, rows, cols))
		}
		ts[i] = trip{r, c, val[i]}
	}
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].r != ts[b].r {
			return ts[a].r < ts[b].r
		}
		return ts[a].c < ts[b].c
	})
	m := &CSR{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(ts); {
		j := i + 1
		sum := ts[i].v
		for j < len(ts) && ts[j].r == ts[i].r && ts[j].c == ts[i].c {
			sum += ts[j].v
			j++
		}
		if sum != 0 {
			m.ColIdx = append(m.ColIdx, ts[i].c)
			m.Val = append(m.Val, sum)
			m.RowPtr[ts[i].r+1]++
		}
		i = j
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// NewCSRFromDense converts a dense block, dropping zeros.
func NewCSRFromDense(d *Dense) *CSR {
	m := &CSR{RowsN: d.RowsN, ColsN: d.ColsN, RowPtr: make([]int, d.RowsN+1)}
	for i := 0; i < d.RowsN; i++ {
		for j, v := range d.Row(i) {
			if v != 0 {
				m.ColIdx = append(m.ColIdx, j)
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = len(m.Val)
	}
	return m
}

// AddCSR returns a+b as a fresh CSR block, merging each row's two sorted
// column lists. Where both operands store column j the entry is
// a(i,j) + b(i,j), added in that order; an entry stored in one operand
// keeps its value; and every entry whose value is zero (a sum that cancels,
// or a stored ±0) is dropped. The result therefore equals, bit for bit,
// NewCSRFromDense of a densified a with b added by AddInto.
func AddCSR(a, b *CSR) *CSR {
	if a.RowsN != b.RowsN || a.ColsN != b.ColsN {
		panic(fmt.Sprintf("matrix: AddCSR: dimension mismatch %dx%d + %dx%d", a.RowsN, a.ColsN, b.RowsN, b.ColsN))
	}
	n := len(a.Val) + len(b.Val)
	rowPtr := make([]int, a.RowsN+1)
	cols := make([]int, n)
	vals := make([]float64, n)
	w := 0
	for i := 0; i < a.RowsN; i++ {
		ac, av := a.ColIdx[a.RowPtr[i]:a.RowPtr[i+1]], a.Val[a.RowPtr[i]:a.RowPtr[i+1]]
		bc, bv := b.ColIdx[b.RowPtr[i]:b.RowPtr[i+1]], b.Val[b.RowPtr[i]:b.RowPtr[i+1]]
		av, bv = av[:len(ac)], bv[:len(bc)] // lets the compiler drop bounds checks
		p, q := 0, 0
		for p < len(ac) && q < len(bc) {
			j, v := ac[p], av[p]
			switch cb := bc[q]; {
			case j < cb:
				p++
			case cb < j:
				j, v = cb, bv[q]
				q++
			default:
				v += bv[q]
				p++
				q++
			}
			cols[w], vals[w] = j, v
			if v != 0 {
				w++
			}
		}
		for ; p < len(ac); p++ {
			cols[w], vals[w] = ac[p], av[p]
			if av[p] != 0 {
				w++
			}
		}
		for ; q < len(bc); q++ {
			cols[w], vals[w] = bc[q], bv[q]
			if bv[q] != 0 {
				w++
			}
		}
		rowPtr[i+1] = w
	}
	return &CSR{RowsN: a.RowsN, ColsN: a.ColsN, RowPtr: rowPtr, ColIdx: cols[:w], Val: vals[:w]}
}

// Dims returns the dimensions.
func (m *CSR) Dims() (int, int) { return m.RowsN, m.ColsN }

// NNZ returns the stored-entry count.
func (m *CSR) NNZ() int { return len(m.Val) }

// SizeBytes accounts 8 bytes per value plus 8 bytes per column index plus the
// row-pointer array, mirroring the in-memory 64-bit CSR payload. The wire
// encoding is usually smaller (32-bit or delta-varint indices); use
// codec.EncodedBytes when pricing network traffic.
func (m *CSR) SizeBytes() int64 {
	return int64(len(m.Val))*elemBytes + int64(len(m.ColIdx))*8 + int64(len(m.RowPtr))*8
}

// At returns element (i, j) with a binary search within the row.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.RowsN || j < 0 || j >= m.ColsN {
		panic(fmt.Sprintf("matrix: index (%d, %d) out of range %dx%d", i, j, m.RowsN, m.ColsN))
	}
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.ColIdx[lo:hi], j)
	if k < hi && m.ColIdx[k] == j {
		return m.Val[k]
	}
	return 0
}

// Dense materializes the block.
func (m *CSR) Dense() *Dense {
	d := NewDense(m.RowsN, m.ColsN)
	for i := 0; i < m.RowsN; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Data[i*m.ColsN+m.ColIdx[k]] = m.Val[k]
		}
	}
	return d
}

// Format reports FormatCSR.
func (m *CSR) Format() Format { return FormatCSR }

// Transpose returns the CSC view of the same data reinterpreted as the
// transposed CSR matrix, as a fresh CSR block.
func (m *CSR) Transpose() *CSR {
	// Count entries per column of m = per row of the transpose.
	rp := make([]int, m.ColsN+1)
	for _, c := range m.ColIdx {
		rp[c+1]++
	}
	for i := 0; i < m.ColsN; i++ {
		rp[i+1] += rp[i]
	}
	col := make([]int, len(m.ColIdx))
	val := make([]float64, len(m.Val))
	next := make([]int, m.ColsN)
	copy(next, rp[:m.ColsN])
	for i := 0; i < m.RowsN; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.ColIdx[k]
			p := next[c]
			col[p] = i
			val[p] = m.Val[k]
			next[c] = p + 1
		}
	}
	return &CSR{RowsN: m.ColsN, ColsN: m.RowsN, RowPtr: rp, ColIdx: col, Val: val}
}

var _ Block = (*CSR)(nil)

// CSC is a compressed-sparse-column block, the column-major dual of CSR.
type CSC struct {
	RowsN, ColsN int
	ColPtr       []int
	RowIdx       []int
	Val          []float64
}

// NewCSCFromDense converts a dense block, dropping zeros.
func NewCSCFromDense(d *Dense) *CSC {
	m := &CSC{RowsN: d.RowsN, ColsN: d.ColsN, ColPtr: make([]int, d.ColsN+1)}
	for j := 0; j < d.ColsN; j++ {
		for i := 0; i < d.RowsN; i++ {
			if v := d.Data[i*d.ColsN+j]; v != 0 {
				m.RowIdx = append(m.RowIdx, i)
				m.Val = append(m.Val, v)
			}
		}
		m.ColPtr[j+1] = len(m.Val)
	}
	return m
}

// NewCSCFromCSR converts between the sparse formats without densifying.
func NewCSCFromCSR(s *CSR) *CSC {
	t := s.Transpose() // CSR of the transpose == CSC of the original, reinterpreted
	return &CSC{RowsN: s.RowsN, ColsN: s.ColsN, ColPtr: t.RowPtr, RowIdx: t.ColIdx, Val: t.Val}
}

// Dims returns the dimensions.
func (m *CSC) Dims() (int, int) { return m.RowsN, m.ColsN }

// NNZ returns the stored-entry count.
func (m *CSC) NNZ() int { return len(m.Val) }

// SizeBytes mirrors the CSR accounting (in-memory, not wire — see
// codec.EncodedBytes for the latter).
func (m *CSC) SizeBytes() int64 {
	return int64(len(m.Val))*elemBytes + int64(len(m.RowIdx))*8 + int64(len(m.ColPtr))*8
}

// At returns element (i, j) with a binary search within the column.
func (m *CSC) At(i, j int) float64 {
	if i < 0 || i >= m.RowsN || j < 0 || j >= m.ColsN {
		panic(fmt.Sprintf("matrix: index (%d, %d) out of range %dx%d", i, j, m.RowsN, m.ColsN))
	}
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	k := lo + sort.SearchInts(m.RowIdx[lo:hi], i)
	if k < hi && m.RowIdx[k] == i {
		return m.Val[k]
	}
	return 0
}

// Dense materializes the block.
func (m *CSC) Dense() *Dense {
	d := NewDense(m.RowsN, m.ColsN)
	for j := 0; j < m.ColsN; j++ {
		for k := m.ColPtr[j]; k < m.ColPtr[j+1]; k++ {
			d.Data[m.RowIdx[k]*m.ColsN+j] = m.Val[k]
		}
	}
	return d
}

// Format reports FormatCSC.
func (m *CSC) Format() Format { return FormatCSC }

var _ Block = (*CSC)(nil)

// Sparsity returns nnz / (rows*cols) for any block; empty blocks report 0.
func Sparsity(b Block) float64 {
	r, c := b.Dims()
	if r == 0 || c == 0 {
		return 0
	}
	return float64(b.NNZ()) / (float64(r) * float64(c))
}
