package blas

// kernelGo is the portable micro-kernel: one tile of at most mr rows and nr
// columns, C (+)= A·panel with the epilogue selected by mode (see gemm.go).
//
// a starts at the tile's first row of A (row stride lda, k values per row),
// panel is the packed k×nr B panel, c starts at the tile's first element of C
// (row stride ldc), m and n are the tile's valid rows and columns, and bias
// holds the n column biases for the bias modes. Each output is summed over k
// from zero and only then combined with C or the bias, the order the
// assembly kernel uses.
func kernelGo(k int, a []float32, lda int, panel []float32, c []float32, ldc int, m, n int, bias []float32, mode int) {
	panel = panel[:k*nr]
	for r := 0; r < m; r++ {
		ar := a[r*lda : r*lda+k]
		var acc [nr]float32
		// Eight scalar accumulators fit the register file of every 64-bit
		// target, so each half of the row is summed without touching memory.
		for h := 0; h < nr; h += 8 {
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			for kk, av := range ar {
				pk := (*[8]float32)(panel[kk*nr+h:])
				s0 += av * pk[0]
				s1 += av * pk[1]
				s2 += av * pk[2]
				s3 += av * pk[3]
				s4 += av * pk[4]
				s5 += av * pk[5]
				s6 += av * pk[6]
				s7 += av * pk[7]
			}
			acc[h], acc[h+1], acc[h+2], acc[h+3] = s0, s1, s2, s3
			acc[h+4], acc[h+5], acc[h+6], acc[h+7] = s4, s5, s6, s7
		}
		cr := c[r*ldc : r*ldc+n]
		switch mode {
		case modeAccumulate:
			for j := range cr {
				cr[j] += acc[j]
			}
		case modeBias:
			for j := range cr {
				cr[j] = acc[j] + bias[j]
			}
		case modeBiasReLU:
			for j := range cr {
				v := acc[j] + bias[j]
				if v < 0 {
					v = 0
				}
				cr[j] = v
			}
		}
	}
}
