package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// gridMs and gridKNs span the micro-kernel's edges: every partial row tile
// (1…5 rows, 6+1…3), the 62-, 250- and 3000-row batches the engine produces,
// and widths around the 16-column panel and the paper's layer sizes.
var (
	gridMs  = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 62, 250, 1024, 3000}
	gridKNs = []int{1, 4, 31, 32, 255, 256, 257, 300}
)

// halfZero zeroes every second column pair of a, the pattern a ReLU layer
// with paired units feeds the next layer.
func halfZero(a Mat) Mat {
	z := a.Clone()
	for i := range z.Data {
		if i%a.Cols%4 < 2 {
			z.Data[i] = 0
		}
	}
	return z
}

// gemmTol bounds |kernel − naive| for a k-term float32 dot product of values
// in [-1, 1]: both sum in k order, the kernel with fused multiply-adds.
func gemmTol(k int) float32 { return 2e-6 * float32(k+8) }

// product returns the reference A·B and the tolerance it is good to. Batches
// up to 250 rows get naiveGemm. The tall batches, where the naive loop would
// dominate the suite, are stitched from Sgemm calls over 62-row slices — a
// shape the grid holds to naiveGemm — and must match bit for bit: a row's
// result cannot depend on the batch, the worker or the cache block it was
// computed in.
func product(a, b Mat) (Mat, float32) {
	prod := NewMat(a.Rows, b.Cols)
	if a.Rows <= 250 {
		naiveGemm(a, b, prod)
		return prod, gemmTol(a.Cols)
	}
	for lo := 0; lo < a.Rows; lo += 62 {
		hi := min(lo+62, a.Rows)
		Sgemm(Mat{Rows: hi - lo, Cols: a.Cols, Data: a.Data[lo*a.Cols : hi*a.Cols]}, b,
			Mat{Rows: hi - lo, Cols: b.Cols, Data: prod.Data[lo*b.Cols : hi*b.Cols]})
	}
	return prod, 0
}

// TestGemmMatchesNaive is the differential test over the shape grid for both
// entry points (run with -tags purego for the portable kernel): GemmBiasAct
// must overwrite C with A·B + bias, Sgemm must add A·B to C.
func TestGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, m := range gridMs {
		for _, k := range gridKNs {
			for _, n := range gridKNs {
				dense := randMat(rng, m, k)
				b := randMat(rng, k, n)
				bias := randMat(rng, 1, n).Data
				pb := PackB(b)
				for _, a := range []Mat{dense, halfZero(dense)} {
					prod, eps := product(a, b)

					c := randMat(rng, m, n)
					want := c.Clone()
					VsAdd(want.Data, prod.Data, want.Data)
					Sgemm(a, b, c)
					if !c.Equal(want, eps) {
						t.Fatalf("Sgemm %dx%dx%d diverges from the reference", m, k, n)
					}

					fused := randMat(rng, m, n) // stale contents must be overwritten
					GemmBiasAct(a, pb, bias, ActNone, fused)
					for i := 0; i < m; i++ {
						VsAdd(prod.Row(i), bias, prod.Row(i))
					}
					if !fused.Equal(prod, eps) {
						t.Fatalf("GemmBiasAct %dx%dx%d diverges from the reference", m, k, n)
					}
				}
			}
		}
	}
}

// TestGemmTouchesOnlyItsTile surrounds C and the bias with sentinels: a
// partial tile must neither write outside its rows and columns nor read a
// NaN parked behind the bias vector.
func TestGemmTouchesOnlyItsTile(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, s := range [][3]int{{1, 3, 1}, {5, 7, 9}, {7, 16, 17}, {13, 5, 31}} {
		m, k, n := s[0], s[1], s[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		buf := make([]float32, m*n+2*n)
		for i := range buf {
			buf[i] = 7
		}
		c := Mat{Rows: m, Cols: n, Data: buf[n : n+m*n]}
		biasBuf := make([]float32, n+8)
		for i := range biasBuf {
			biasBuf[i] = float32(math.NaN())
		}
		bias := biasBuf[:n]
		copy(bias, randMat(rng, 1, n).Data)
		GemmBiasAct(a, PackB(b), bias, ActReLU, c)
		for i, v := range buf {
			inside := i >= n && i < n+m*n
			if !inside && v != 7 {
				t.Fatalf("%v: wrote outside C at %d", s, i-n)
			}
			if inside && v != v {
				t.Fatalf("%v: read past the bias vector", s)
			}
		}
	}
}

// relu applies max(0, x) in place: the unfused reference the ReLU epilogue
// is held to.
func relu(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// TestFusedEpilogueEqualsUnfused pins the fused call to the sequence it
// replaces — zeroed C, Sgemm, row-wise bias add, activation pass: linear and
// ReLU are bit-equal (same kernel, same order), sigmoid and tanh agree within
// the fast-math budget.
func TestFusedEpilogueEqualsUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range [][3]int{{3, 4, 5}, {62, 32, 32}, {250, 128, 128}, {1024, 256, 256}, {1030, 300, 33}} {
		m, k, n := s[0], s[1], s[2]
		a := halfZero(randMat(rng, m, k))
		b := randMat(rng, k, n)
		bias := randMat(rng, 1, n).Data
		pb := PackB(b)
		for _, act := range []Activation{ActNone, ActReLU, ActSigmoid, ActTanh} {
			want := NewMat(m, n)
			Sgemm(a, b, want)
			for i := 0; i < m; i++ {
				VsAdd(want.Row(i), bias, want.Row(i))
			}
			var eps float32
			switch act {
			case ActReLU:
				relu(want.Data)
			case ActSigmoid:
				Sigmoid(want.Data)
				eps = 1e-6
			case ActTanh:
				Tanh(want.Data)
				eps = 1e-6
			}
			got := randMat(rng, m, n)
			GemmBiasAct(a, pb, bias, act, got)
			if !got.Equal(want, eps) {
				t.Errorf("%v act %d: fused epilogue diverges from unfused (eps %g)", s, act, eps)
			}
		}
	}
}

// TestGemmPropagatesNonFinite: the kernel is dense, so a NaN or Inf weight
// reaches C even when the activation multiplying it is zero (0·NaN and 0·Inf
// are NaN) — a zero-skipping kernel would hide the bad weight.
func TestGemmPropagatesNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		a := Mat{Rows: 1, Cols: 2, Data: []float32{0, 1}}
		b := Mat{Rows: 2, Cols: 1, Data: []float32{bad, 2}}
		c := NewMat(1, 1)
		Sgemm(a, b, c)
		if c.Data[0] == c.Data[0] {
			t.Errorf("Sgemm: 0·%v vanished, C = %v", bad, c.Data[0])
		}
		c = NewMat(1, 1)
		GemmBiasAct(a, PackB(b), []float32{0}, ActReLU, c)
		if c.Data[0] == c.Data[0] {
			t.Errorf("GemmBiasAct: 0·%v vanished behind ReLU, C = %v", bad, c.Data[0])
		}
	}
}

// TestNilBiasAccumulates: GemmBiasAct with a nil bias is Sgemm over weights
// packed once — C += A·W, bit for bit — which is how the LSTM adds its
// recurrent term.
func TestNilBiasAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range [][3]int{{1, 1, 1}, {7, 12, 12}, {1024, 40, 40}, {3000, 33, 17}} {
		m, k, n := s[0], s[1], s[2]
		a, b, c0 := randMat(rng, m, k), randMat(rng, k, n), randMat(rng, m, n)
		want, got := c0.Clone(), c0.Clone()
		Sgemm(a, b, want)
		GemmBiasAct(a, PackB(b), nil, ActNone, got)
		if !got.Equal(want, 0) {
			t.Errorf("%v: nil-bias GemmBiasAct diverges from Sgemm", s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on an activation without a bias")
		}
	}()
	GemmBiasAct(NewMat(2, 3), PackB(NewMat(3, 4)), nil, ActSigmoid, NewMat(2, 4))
}

func TestGemmBiasActDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bias length mismatch")
		}
	}()
	GemmBiasAct(NewMat(2, 3), PackB(NewMat(3, 4)), make([]float32, 3), ActNone, NewMat(2, 4))
}

// TestGemmConcurrent runs both entry points from several goroutines over one
// shared PackedB, the way partition-parallel plans hit a cached model; under
// -race it checks the pooled pack buffers and job descriptors.
func TestGemmConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b := randMat(rng, 1024, 256), randMat(rng, 256, 256)
	bias := randMat(rng, 1, 256).Data
	pb := PackB(b)
	want := NewMat(1024, 256)
	GemmBiasAct(a, pb, bias, ActReLU, want)
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for it := 0; it < 5; it++ {
				c := NewMat(1024, 256)
				if g%2 == 0 {
					GemmBiasAct(a, pb, bias, ActReLU, c)
				} else {
					for i := 0; i < c.Rows; i++ {
						copy(c.Row(i), bias)
					}
					Sgemm(a, b, c)
					relu(c.Data)
				}
				if !c.Equal(want, 0) {
					errs <- fmt.Sprintf("goroutine %d iteration %d diverged", g, it)
					return
				}
			}
			errs <- ""
		}(g)
	}
	for g := 0; g < 4; g++ {
		if e := <-errs; e != "" {
			t.Error(e)
		}
	}
}

// rowFunc adapts a closure to rowJob.
type rowFunc func(lo, hi int)

func (f rowFunc) runRows(lo, hi int) { f(lo, hi) }

// TestParallelRowsCoversAllRows checks the pooled splitter executes every
// row exactly once across chunk boundaries and pool-saturation fallbacks,
// and that every chunk but the last ends on a tile boundary.
func TestParallelRowsCoversAllRows(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1024, 4099} {
		hits := make([]int32, n)
		parallelRows(n, 1<<30, rowFunc(func(lo, hi int) {
			if lo%mr != 0 {
				t.Errorf("n=%d: chunk starts at %d, not a multiple of %d", n, lo, mr)
			}
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		}))
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: row %d executed %d times", n, i, h)
			}
		}
	}
}

// testKernel is one micro-kernel the tests and benchmarks can force.
type testKernel struct {
	name string
	use  func()
}

// withSpecials overwrites a few entries of m with NaN (random payload and
// sign), +Inf and -Inf: none, a handful or about one in fifty.
func withSpecials(rng *rand.Rand, m Mat) Mat {
	count := [3]int{0, 1 + rng.Intn(3), len(m.Data)/50 + 1}[rng.Intn(3)]
	for ; count > 0; count-- {
		v := float32(math.Inf(1 - 2*rng.Intn(2)))
		if rng.Intn(2) == 0 {
			v = math.Float32frombits(0x7fc00000 | rng.Uint32()&0x803fffff)
		}
		m.Data[rng.Intn(len(m.Data))] = v
	}
	return m
}

// TestGeneratedKernelsAgree holds the AVX-512 tile to the AVX2 one bit for
// bit through both entry points and every epilogue, NaN payloads included,
// on shapes that cover partial row tiles, a partial upper panel and the odd
// last panel the AVX2 tile takes.
func TestGeneratedKernelsAgree(t *testing.T) {
	kerns := map[string]testKernel{}
	for _, k := range testKernels() {
		kerns[k.name] = k
	}
	wide, okWide := kerns["avx512"]
	narrow, okNarrow := kerns["avx2"]
	if !okWide || !okNarrow {
		t.Skip("the AVX-512 kernel does not run here: the CPU lacks AVX-512F or the build is portable")
	}
	defer restoreKernel()
	seed := time.Now().UnixNano()
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	acts := []Activation{ActNone, ActReLU, ActSigmoid, ActTanh}
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 62, 250, 750} {
		for _, k := range []int{1, 3, 4, 5, 32, 33, 256} {
			for _, n := range []int{1, 16, 17, 31, 32, 33, 48, 50, 256} {
				a := withSpecials(rng, randMat(rng, m, k))
				b := withSpecials(rng, randMat(rng, k, n))
				bias := randMat(rng, 1, n).Data
				c := withSpecials(rng, randMat(rng, m, n))
				pb := PackB(b)
				run := func(kern testKernel) []Mat {
					kern.use()
					out := make([]Mat, 0, len(acts)+1)
					for _, act := range acts {
						o := randMat(rng, m, n)
						GemmBiasAct(a, pb, bias, act, o)
						out = append(out, o)
					}
					acc := c.Clone()
					Sgemm(a, b, acc)
					return append(out, acc)
				}
				got, want := run(wide), run(narrow)
				for i := range got {
					for e, v := range got[i].Data {
						if g, w := math.Float32bits(v), math.Float32bits(want[i].Data[e]); g != w {
							call := "Sgemm"
							if i < len(acts) {
								call = fmt.Sprintf("GemmBiasAct act %d", acts[i])
							}
							t.Fatalf("seed %d: %s %dx%dx%d: C[%d][%d] is %#08x on avx512, %#08x on avx2",
								seed, call, m, k, n, e/n, e%n, g, w)
						}
					}
				}
			}
		}
	}
}

// BenchmarkSgemm measures both entry points on every kernel this CPU runs,
// at the batch heights the engine produces (62-row shard blocks, 250-row
// partitions, full 1024-row vectors) against the paper's dense widths,
// reporting GFLOP/s.
func BenchmarkSgemm(b *testing.B) {
	defer restoreKernel()
	for _, kern := range testKernels() {
		kern.use()
		rng := rand.New(rand.NewSource(8))
		for _, m := range []int{62, 250, 1024} {
			for _, dim := range []int{32, 128, 256, 512} {
				a := randMat(rng, m, dim)
				w := randMat(rng, dim, dim)
				bias := randMat(rng, 1, dim).Data
				c := NewMat(m, dim)
				gflop := float64(FlopsGemm(m, dim, dim)) / 1e9
				report := func(b *testing.B) {
					b.ReportMetric(gflop*float64(b.N)/b.Elapsed().Seconds(), "GFLOP/s")
				}
				b.Run(fmt.Sprintf("%s/%dx%dx%d", kern.name, m, dim, dim), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						Sgemm(a, w, c)
					}
					report(b)
				})
				pw := PackB(w)
				b.Run(fmt.Sprintf("%s/packed/%dx%dx%d", kern.name, m, dim, dim), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						GemmBiasAct(a, pw, bias, ActReLU, c)
					}
					report(b)
				})
			}
		}
	}
}
