//go:build !amd64 || purego

package blas

func tileCols() int { return nr }

func microKernel(k int, a []float32, lda int, panel []float32, c []float32, ldc int, m, n int, bias []float32, mode int) {
	kernelGo(k, a, lda, panel, c, ldc, m, n, bias, mode)
}
