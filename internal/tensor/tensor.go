// Package tensor implements the dense float32 linear algebra used by the
// LSTM library: vectors, row-major matrices, the GEMV/GEMM kernel
// family, and the activation functions from the paper (sigmoid, hard
// sigmoid, tanh).
//
// The kernels come in two tiers sharing one inner accumulation chain
// (kernel.go), so they are bitwise interchangeable:
//
//   - serial: Gemv, GemvRows (DRS skip mask), Gemm — every output row
//     is one 16-lane dot-product chain (kernel.go's dotRowGeneric,
//     carried in SSE2 assembly on amd64);
//   - packed (packed.go): Pack/PackedGemv/PackedGemvRows/PackedGemm/
//     PackedGemmRows over a row-wise united gate matrix (the paper's
//     U_{f,i,c,o}), streaming the input once per cell instead of once
//     per gate. The batched PackedGemm/PackedGemmRows shard their
//     destination rows over a size-gated fork-join pool (parallel.go),
//     bitwise identical to serial at any GOMAXPROCS.
//
// The GEMV/GEMM kernels are methods on KernelChain (chain.go), which
// names the accumulation chain they run: the canonical chain above
// (ChainSSE2, what the package-level functions run) or the wide 32-lane
// FMA chain (ChainAVX2: kernel_wide.go, AVX2+FMA assembly on capable
// amd64). The wide chain carries its own wide-vs-wide bitwise contract
// and is not interchangeable with the canonical chain.
//
// The package is deliberately small and allocation-conscious: LSTM
// inference is a long sequence of GEMV/GEMM calls over the same shapes, so
// every operation writes into a caller-provided destination and no kernel
// allocates.
package tensor

// Vector is a dense float32 vector.
type Vector []float32

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Fill sets every element of v to x.
func (v Vector) Fill(x float32) {
	for i := range v {
		v[i] = x
	}
}

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		Panicf("tensor: negative shape %dx%d", rows, cols)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector {
	return Vector(m.Data[i*m.Cols : (i+1)*m.Cols])
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, x float32) { m.Data[i*m.Cols+j] = x }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// SizeBytes returns the storage footprint of the matrix in bytes
// (4 bytes per float32), as loaded by a GPU kernel.
func (m *Matrix) SizeBytes() int64 { return int64(m.Rows) * int64(m.Cols) * 4 }

// Gemv is ChainSSE2.Gemv.
func Gemv(dst Vector, m *Matrix, x Vector) { ChainSSE2.Gemv(dst, m, x) }

// GemvRows is ChainSSE2.GemvRows.
func GemvRows(dst Vector, m *Matrix, x Vector, skip []bool, fill float32) {
	ChainSSE2.GemvRows(dst, m, x, skip, fill)
}

// Gemv computes dst = m · x through chain c. dst must have length
// m.Rows and x length m.Cols. On the canonical chain every row is the
// shared dotRow kernel: sixteen independent accumulation lanes,
// computed four-at-a-time by packed SSE2 on amd64 and by the
// bitwise-identical pure-Go chain elsewhere.
func (c KernelChain) Gemv(dst Vector, m *Matrix, x Vector) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		Panicf("tensor: Gemv shape mismatch: dst %d, m %dx%d, x %d",
			len(dst), m.Rows, m.Cols, len(x))
	}
	gemvSpan(c.rowDot(), dst, m, x, 0)
}

// GemvRows computes dst[i] = m.Row(i) · x through chain c only for rows
// i where skip[i] == false; skipped rows of dst are set to fill. skip
// may be nil, in which case all rows are computed. This is the numeric
// counterpart of the paper's Sgemv(U_{f,i,c}, h, R) kernel with trivial
// rows disabled. Computed rows use the same row kernel as c.Gemv, so a
// nil-skip GemvRows is bitwise identical to Gemv.
func (c KernelChain) GemvRows(dst Vector, m *Matrix, x Vector, skip []bool, fill float32) {
	if len(dst) != m.Rows || len(x) != m.Cols {
		Panicf("tensor: GemvRows shape mismatch: dst %d, m %dx%d, x %d",
			len(dst), m.Rows, m.Cols, len(x))
	}
	if skip != nil && len(skip) != m.Rows {
		Panicf("tensor: GemvRows skip length mismatch")
	}
	dot := c.rowDot()
	if skip == nil {
		gemvSpan(dot, dst, m, x, 0)
		return
	}
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		if skip[i] {
			dst[i] = fill
			continue
		}
		dst[i] = dot(m.Data[i*n:i*n+n], x)
	}
}

// Gemm computes dst = a · b, where dst is (a.Rows × b.Cols). It uses a
// simple ikj loop order which is cache-friendly for row-major storage.
func Gemm(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		Panicf("tensor: Gemm shape mismatch: dst %dx%d, a %dx%d, b %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		drow := dst.Data[i*n : i*n+n]
		for j := range drow {
			drow[j] = 0
		}
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			brow := b.Data[k*n : k*n+n]
			for j, bv := range brow {
				drow[j] += aik * bv
			}
		}
	}
}

// Add computes dst[i] = a[i] + b[i].
func Add(dst, a, b Vector) {
	if len(dst) != len(a) || len(a) != len(b) {
		Panicf("tensor: Add length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Mul computes dst[i] = a[i] * b[i] (the Hadamard product used by the
// LSTM gate equations).
func Mul(dst, a, b Vector) {
	if len(dst) != len(a) || len(a) != len(b) {
		Panicf("tensor: Mul length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// Dot returns the inner product of a and b, reduced through the same
// dotRow chain as Gemv so a standalone inner product is bitwise
// identical to the matching matrix row product.
func Dot(a, b Vector) float32 {
	if len(a) != len(b) {
		Panicf("tensor: Dot length mismatch")
	}
	return dotRow(a, b)
}

// AbsRowSums returns d[i] = Σ_j |m[i][j]|, the per-row L1 norms used by
// Algorithm 2 of the paper to bound U·h for h ∈ [-1, 1]^n.
func AbsRowSums(m *Matrix) Vector {
	d := NewVector(m.Rows)
	n := m.Cols
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*n : i*n+n]
		var s float32
		for _, v := range row {
			if v < 0 {
				v = -v
			}
			//lint:ignore detfloat Algorithm 2's L1 norms are a one-time offline bound, never on the logit path; the serial per-row order is itself deterministic
			s += v
		}
		d[i] = s
	}
	return d
}

// ArgMax returns the index of the largest element of v, breaking ties in
// favour of the lower index. It panics on an empty vector.
func ArgMax(v Vector) int {
	if len(v) == 0 {
		Panicf("tensor: ArgMax of empty vector")
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// MaxAbs returns max_i |v[i]|, or 0 for an empty vector.
func MaxAbs(v Vector) float32 {
	var m float32
	for _, x := range v {
		a := x
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}
