//go:build amd64 && !purego

package blas

// useAVX2 and useAVX512 are decided once at init: the AVX2 kernel needs AVX2
// and FMA from the CPU and YMM state saving from the OS, the AVX-512 kernel
// AVX-512F on top and opmask and ZMM state saving; anything else runs the
// portable kernel. Tests and benchmarks switch them to reach each kernel.
var (
	useAVX2   = cpuHasAVX2FMA()
	useAVX512 = useAVX2 && cpuHasAVX512F()
)

func cpuHasAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves XMM and YMM registers.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuHasAVX512F() bool {
	const avx512f = 1 << 16
	if _, ebx7, _, _ := cpuid(7, 0); ebx7&avx512f == 0 {
		return false
	}
	// XCR0 bits 1, 2 and 5–7: the OS saves XMM, YMM, opmask and ZMM state.
	xcr0, _ := xgetbv()
	return xcr0&0xe6 == 0xe6
}

// colMask is sixteen all-ones lanes followed by sixteen zero lanes; the
// sixteen lanes starting at colMask[nr-n] are the kernel's load/store mask
// for a tile with n valid columns.
var colMask = [2 * nr]int32{
	-1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// kernelAVX2 is kernelGo in AVX2/FMA assembly (kernel_amd64.s).
//
//go:noescape
func kernelAVX2(k int, a []float32, lda int, panel []float32, c []float32, ldc int, m, n int, bias []float32, mode int)

// kernelAVX512 computes a tile of 17 to 32 columns over two adjacent panels
// (kernel_amd64.s), bit for bit as kernelAVX2 would compute them one panel at
// a time.
//
//go:noescape
func kernelAVX512(k int, a []float32, lda int, panel []float32, c []float32, ldc int, m, n int, bias []float32, mode int)

// tileCols is the widest tile microKernel takes: two panels when the AVX-512
// kernel runs.
func tileCols() int {
	if useAVX512 {
		return 2 * nr
	}
	return nr
}

func microKernel(k int, a []float32, lda int, panel []float32, c []float32, ldc int, m, n int, bias []float32, mode int) {
	if n > nr {
		kernelAVX512(k, a, lda, panel, c, ldc, m, n, bias, mode)
		return
	}
	if useAVX2 {
		kernelAVX2(k, a, lda, panel, c, ldc, m, n, bias, mode)
		return
	}
	kernelGo(k, a, lda, panel, c, ldc, m, n, bias, mode)
}
