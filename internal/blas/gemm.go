package blas

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The gemm micro-kernel computes one mr×nr tile of C in registers: twelve
// 8-float accumulators (six rows of two vectors) fed by one packed B panel
// row and six broadcast A values per k step, the AVX2 register budget of 16
// YMM registers. Three kernels implement this tile contract — AVX2/FMA
// assembly, the portable Go kernel, and AVX-512 assembly that computes two
// adjacent tiles at once (6×2nr over panels p and p+1, twelve ZMM
// accumulators) — and each sums over k in the same order and handles partial
// tiles (fewer than mr rows, fewer than nr columns) itself. The assembly
// kernels issue the same operations per output lane, so they agree bit for
// bit; which one runs is decided once at init from CPUID.
const (
	mr = 6
	nr = 16
)

// Kernel epilogues: what a tile does with its accumulated A·B.
const (
	modeAccumulate = 0 // C += A·B
	modeBias       = 1 // C = A·B + bias
	modeBiasReLU   = 2 // C = max(A·B + bias, 0)
)

// blockFloats bounds the A and C rows one cache block touches (256 KB of
// float32), so a block's activations stay L2-resident while every B panel
// passes over them.
const blockFloats = 1 << 16

// Activation selects the function GemmBiasAct applies in its epilogue.
type Activation uint8

// Epilogue activations.
const (
	ActNone Activation = iota
	ActReLU
	ActSigmoid
	ActTanh
)

// PackedB is a k×n matrix laid out for the micro-kernel: ⌈n/nr⌉ panels, each
// holding nr consecutive columns for all k rows (row kk of panel p at
// data[(p·k+kk)·nr:]), the last panel zero-padded. Packing a layer's
// immutable weights once makes every later multiply read B sequentially
// without touching the original matrix.
type PackedB struct {
	rows, cols int
	data       []float32
}

// PackB packs b for GemmBiasAct. The result is immutable and safe for
// concurrent use.
func PackB(b Mat) *PackedB {
	p := new(PackedB)
	p.pack(b)
	return p
}

// pack fills p from b, reusing p's buffer when it is large enough.
func (p *PackedB) pack(b Mat) {
	k, n := b.Rows, b.Cols
	panels := (n + nr - 1) / nr
	if need := panels * k * nr; cap(p.data) < need {
		p.data = make([]float32, need)
	} else {
		p.data = p.data[:need]
	}
	p.rows, p.cols = k, n
	for pi := 0; pi < panels; pi++ {
		j0 := pi * nr
		w := min(nr, n-j0)
		dst := p.data[pi*k*nr : (pi+1)*k*nr]
		for kk := 0; kk < k; kk++ {
			row := dst[kk*nr : (kk+1)*nr]
			copy(row, b.Data[kk*n+j0:kk*n+j0+w])
			clear(row[w:])
		}
	}
}

// packPool recycles Sgemm's per-call packed copies of B, and jobPool the job
// descriptors, so the steady-state hot path performs no allocation.
var (
	packPool = sync.Pool{New: func() any { return new(PackedB) }}
	jobPool  = sync.Pool{New: func() any { return new(gemmJob) }}
)

// Sgemm computes C = A·B + C for row-major matrices, the BLAS operation the
// paper's layer-forward functions are built on (the "+ C" term carries a
// pre-filled bias, Sec. 5.4). Dimensions: A is m×k, B is k×n, C is m×n. It
// panics on dimension mismatch — shapes are established once in the
// ModelJoin build phase, so a mismatch is a programming error.
//
// B is packed once per call into a pooled buffer shared by all workers. The
// kernel is dense: zeros in A are multiplied like any other value, so
// non-finite entries of B always reach C.
func Sgemm(a, b, c Mat) {
	if a.Cols != b.Rows || a.Rows != c.Rows || b.Cols != c.Cols {
		panic(fmt.Sprintf("blas: sgemm dimension mismatch: (%dx%d)·(%dx%d) -> (%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
	pb := packPool.Get().(*PackedB)
	pb.pack(b)
	gemm(a, pb, nil, ActNone, c)
	packPool.Put(pb)
}

// GemmBiasAct computes C = act(A·W + bias) in one pass: the bias add and the
// activation run in the kernel's epilogue while the tile (ReLU) or the cache
// block (sigmoid, tanh) is still hot, replacing the bias-matrix copy and the
// separate activation pass around Sgemm. A is m×k, W the packed k×n weights,
// bias has n entries, C is m×n and is overwritten. A nil bias accumulates
// instead, C += A·W, and takes no activation. It returns the kernel busy
// time summed over the workers that shared the rows.
func GemmBiasAct(a Mat, w *PackedB, bias []float32, act Activation, c Mat) time.Duration {
	if a.Cols != w.rows || a.Rows != c.Rows || w.cols != c.Cols || (bias != nil && len(bias) != w.cols) {
		panic(fmt.Sprintf("blas: gemm dimension mismatch: (%dx%d)·(%dx%d) + (%d) -> (%dx%d)",
			a.Rows, a.Cols, w.rows, w.cols, len(bias), c.Rows, c.Cols))
	}
	if bias == nil && act != ActNone {
		panic("blas: an accumulating gemm (nil bias) takes no activation")
	}
	return gemm(a, w, bias, act, c)
}

// gemmJob is one multiply split by rows across the worker pool.
type gemmJob struct {
	a, c Mat
	b    *PackedB
	bias []float32 // nil: accumulate into C
	act  Activation
	busy atomic.Int64
}

func gemm(a Mat, b *PackedB, bias []float32, act Activation, c Mat) time.Duration {
	j := jobPool.Get().(*gemmJob)
	j.a, j.b, j.c, j.bias, j.act = a, b, c, bias, act
	j.busy.Store(0)
	parallelRows(a.Rows, a.Rows*a.Cols*c.Cols, j)
	busy := time.Duration(j.busy.Load())
	*j = gemmJob{}
	jobPool.Put(j)
	return busy
}

// runRows computes C rows [lo, hi). Rows are walked in cache blocks; inside a
// block each B panel, or pair of panels for the AVX-512 kernel (L1-resident),
// sweeps all row tiles before the next is touched, and the block's activation
// runs before the block leaves cache. A last odd panel, and a matrix of at
// most nr columns, take the one-panel tile.
func (j *gemmJob) runRows(lo, hi int) {
	start := time.Now()
	k, n := j.a.Cols, j.c.Cols
	mode := modeAccumulate
	if j.bias != nil {
		mode = modeBias
		if j.act == ActReLU {
			mode = modeBiasReLU
		}
	}
	span := tileCols()
	mc := blockFloats / (k + n + 1) / mr * mr
	if mc < mr {
		mc = mr
	}
	for i0 := lo; i0 < hi; i0 += mc {
		i1 := min(i0+mc, hi)
		for j0, w := 0, 0; j0 < n; j0 += w {
			w = min(span, n-j0)
			panel := j.b.data[j0*k : (j0+(w+nr-1)/nr*nr)*k]
			var bias []float32
			if j.bias != nil {
				bias = j.bias[j0 : j0+w]
			}
			for i := i0; i < i1; i += mr {
				microKernel(k, j.a.Data[i*k:], k, panel, j.c.Data[i*n+j0:], n, min(mr, i1-i), w, bias, mode)
			}
		}
		switch j.act {
		case ActSigmoid:
			Sigmoid(j.c.Data[i0*n : i1*n])
		case ActTanh:
			Tanh(j.c.Data[i0*n : i1*n])
		}
	}
	j.busy.Add(int64(time.Since(start)))
}
