// Package blas provides the float32 linear-algebra kernels the native
// ModelJoin operator, and through it the C-API, UDF and TF(Python)
// baselines, are built on. It plays the role the paper assigns to the BLAS
// interface realized by Intel MKL (CPU) and cuBLAS (GPU): general matrix
// multiply, rank-1 update, elementwise vector ops and the activation
// functions of Listing 5.
//
// Matrices are dense row-major float32 slices; Mat couples the slice with
// its dimensions. Large operations are parallelized across goroutines, like
// MKL parallelizes across cores.
package blas

import (
	"fmt"
	"strings"
)

// Mat is a dense row-major matrix: element (i, j) lives at Data[i*Cols+j].
type Mat struct {
	Rows, Cols int
	Data       []float32
}

// NewMat allocates a zeroed Rows×Cols matrix.
func NewMat(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns element (i, j).
func (m Mat) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set stores element (i, j).
func (m Mat) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m Mat) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of the matrix.
func (m Mat) Clone() Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Equal reports approximate elementwise equality within eps.
func (m Mat) Equal(o Mat, eps float32) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - o.Data[i]
		if d < -eps || d > eps {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m Mat) String() string {
	var sb strings.Builder
	for i := 0; i < m.Rows; i++ {
		fmt.Fprintf(&sb, "%v\n", m.Row(i))
	}
	return sb.String()
}

// Scopy copies src into dst (the COPY of Listing 5).
func Scopy(dst, src []float32) {
	if len(dst) != len(src) {
		panic("blas: scopy length mismatch")
	}
	copy(dst, src)
}

// VsMul computes z[i] = x[i] * y[i] (MKL's vsMul, used by the LSTM gates).
func VsMul(x, y, z []float32) {
	if len(x) != len(y) || len(x) != len(z) {
		panic("blas: vsMul length mismatch")
	}
	for i, v := range x {
		z[i] = v * y[i]
	}
}

// VsAdd computes z[i] = x[i] + y[i] (MKL's vsAdd).
func VsAdd(x, y, z []float32) {
	if len(x) != len(y) || len(x) != len(z) {
		panic("blas: vsAdd length mismatch")
	}
	for i, v := range x {
		z[i] = v + y[i]
	}
}

// Transpose writes aᵀ into dst (dst must be a.Cols×a.Rows). The ModelJoin
// operator transposes the gathered input matrix once per batch before the
// first layer-forward (Sec. 5.4).
func Transpose(a, dst Mat) {
	if dst.Rows != a.Cols || dst.Cols != a.Rows {
		panic("blas: transpose dimension mismatch")
	}
	// Blocked transpose for cache friendliness on large matrices.
	const bs = 32
	for ii := 0; ii < a.Rows; ii += bs {
		for jj := 0; jj < a.Cols; jj += bs {
			iMax := min(ii+bs, a.Rows)
			jMax := min(jj+bs, a.Cols)
			for i := ii; i < iMax; i++ {
				row := a.Row(i)
				for j := jj; j < jMax; j++ {
					dst.Data[j*dst.Cols+i] = row[j]
				}
			}
		}
	}
}

// FlopsGemm returns the floating point operation count of an m×k by k×n
// matrix multiply; the simulated GPU device charges time proportional to it.
func FlopsGemm(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
