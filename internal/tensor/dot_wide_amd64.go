//go:build amd64

package tensor

// dotRowWide dispatches the wide row chain to the AVX2+FMA body in
// dot_avx2_amd64.s when the CPU probe allows it, and to the pure-Go
// wide twin otherwise. The fallback keeps ChainAVX2 selectable on any
// CPU: the chain — and its determinism contract — is the same, only the
// body changes. The slice contract stays in Go, exactly as in dotRow.
func dotRowWide(row, x []float32) float32 {
	n := len(row)
	if n == 0 {
		return 0
	}
	x = x[:n]
	if !hasWideBody {
		return dotRowWideGeneric(row, x)
	}
	return dotAVX2(&row[0], &x[0], n)
}

// dotAVX2 is implemented in dot_avx2_amd64.s. It must match
// dotRowWideGeneric bitwise on the pinned corpora; see the wide chain
// definition in kernel_wide.go.
func dotAVX2(row, x *float32, n int) float32
