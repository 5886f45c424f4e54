//go:build !amd64

package matrix

// useAVX is false off amd64: gemmRange runs its pure-Go loops only.
var useAVX = false

func gemm4x8(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, kc, nc int) {
	panic("matrix: gemm4x8 has no implementation on this architecture")
}
