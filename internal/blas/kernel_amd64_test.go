//go:build amd64 && !purego

package blas

// hostAVX2 and hostAVX512 keep the kernel choice made at init.
var hostAVX2, hostAVX512 = useAVX2, useAVX512

// testKernels lists the micro-kernels this CPU runs, widest first; use routes
// every later gemm call to one of them until restoreKernel.
func testKernels() []testKernel {
	var ks []testKernel
	if hostAVX512 {
		ks = append(ks, testKernel{"avx512", func() { useAVX2, useAVX512 = true, true }})
	}
	if hostAVX2 {
		ks = append(ks, testKernel{"avx2", func() { useAVX2, useAVX512 = true, false }})
	}
	return append(ks, testKernel{"go", func() { useAVX2, useAVX512 = false, false }})
}

func restoreKernel() { useAVX2, useAVX512 = hostAVX2, hostAVX512 }
