package matrix

// useAVX selects the assembly micro-kernel in gemmRange. It is decided
// once, from CPUID and XGETBV, and only tests change it.
var useAVX = cpuHasAVX()

// gemm4x8 adds A[0:4, 0:kc]×B[0:kc, 0:nc] into C[0:4, 0:nc], where a, b
// and c point at the panels' first elements and ldX are row strides in
// elements. It holds a 4×8 C tile in registers across the k-tile: for each
// p in ascending order it broadcasts the four A values, multiplies the
// eight B values with VMULPD and accumulates with VADDPD, so every C
// element gets the same roundings, in the same order, as the scalar loop.
// kc must be at least 1 and nc a positive multiple of 8. It does not skip
// zeros: callers hand it only panels of A that contain none.
//
//go:noescape
func gemm4x8(c *float64, ldc int, a *float64, lda int, b *float64, ldb int, kc, nc int)

// cpuHasAVX reports whether the CPU and OS support 256-bit AVX.
func cpuHasAVX() bool
