package device

import (
	"sync"
	"testing"
	"time"

	"indbml/internal/blas"
)

func TestCPUPassthrough(t *testing.T) {
	cpu := NewCPU()
	a := cpu.NewMat(2, 2)
	cpu.Upload(a, []float32{1, 2, 3, 4})
	b := cpu.NewMat(2, 2)
	cpu.Upload(b, []float32{1, 0, 0, 1})
	c := cpu.NewMat(2, 2)
	cpu.GemmBiasAct(a, blas.PackB(b), nil, blas.ActNone, c)
	out := make([]float32, 4)
	cpu.Download(out, c)
	if out[0] != 1 || out[3] != 4 {
		t.Errorf("gemm result %v", out)
	}
	st := cpu.Stats()
	if st.BytesAllocated != 3*4*4 {
		t.Errorf("allocation accounting: %+v", st)
	}
	cpu.Free(a)
	if cpu.Stats().BytesAllocated != 2*4*4 {
		t.Errorf("free accounting: %+v", cpu.Stats())
	}
	if cpu.Stats().PeakBytesAllocated != 3*4*4 {
		t.Errorf("peak accounting: %+v", cpu.Stats())
	}
}

func TestGPUExactResults(t *testing.T) {
	gpu := NewGPU(DefaultGPUConfig())
	cpu := NewCPU()
	mk := func(dev Device) []float32 {
		a := dev.NewMat(3, 4)
		dev.Upload(a, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
		b := dev.NewMat(4, 2)
		dev.Upload(b, []float32{1, 0, 0, 1, 1, 0, 0, 1})
		c := dev.NewMat(3, 2)
		dev.GemmBiasAct(a, blas.PackB(b), nil, blas.ActNone, c)
		dev.Sigmoid(c.Data)
		out := make([]float32, 6)
		dev.Download(out, c)
		return out
	}
	g, c := mk(gpu), mk(cpu)
	for i := range g {
		if g[i] != c[i] {
			t.Fatalf("GPU result diverges at %d: %v vs %v", i, g[i], c[i])
		}
	}
}

func TestGPUTimeModelScalesWithWork(t *testing.T) {
	cfg := DefaultGPUConfig()
	gpu := NewGPU(cfg)
	small := gpu.NewMat(8, 8)
	gpu.GemmBiasAct(small, blas.PackB(small), nil, blas.ActNone, gpu.NewMat(8, 8))
	smallTime := gpu.Stats().ModeledTime

	gpu2 := NewGPU(cfg)
	big := gpu2.NewMat(256, 256)
	gpu2.GemmBiasAct(big, blas.PackB(big), nil, blas.ActNone, gpu2.NewMat(256, 256))
	bigTime := gpu2.Stats().ModeledTime

	if bigTime <= smallTime {
		t.Errorf("modeled time does not scale: small %v big %v", smallTime, bigTime)
	}
	// Launch latency dominates tiny kernels: the small gemm should cost at
	// least the configured launch overhead.
	if smallTime < cfg.KernelLaunch {
		t.Errorf("small kernel %v below launch latency %v", smallTime, cfg.KernelLaunch)
	}
}

func TestGPUTransferAccounting(t *testing.T) {
	cfg := DefaultGPUConfig()
	gpu := NewGPU(cfg)
	m := gpu.NewMat(1000, 1000)
	data := make([]float32, 1000*1000)
	gpu.Upload(m, data)
	st := gpu.Stats()
	if st.BytesH2D != 4_000_000 {
		t.Errorf("H2D bytes = %d", st.BytesH2D)
	}
	wantMin := time.Duration(float64(4_000_000) / cfg.PCIeBandwidth * float64(time.Second))
	if st.ModeledTime < wantMin {
		t.Errorf("transfer time %v below bandwidth model %v", st.ModeledTime, wantMin)
	}
	gpu.Download(data, m)
	if gpu.Stats().BytesD2H != 4_000_000 {
		t.Errorf("D2H bytes = %d", gpu.Stats().BytesD2H)
	}
}

func TestGPUMemoryAccountingAndOOM(t *testing.T) {
	cfg := DefaultGPUConfig()
	cfg.MemoryBytes = 1 << 20 // 1 MB device
	gpu := NewGPU(cfg)
	m := gpu.NewMat(256, 256) // 256 KB
	if gpu.Stats().BytesAllocated != 256*256*4 {
		t.Errorf("device memory accounting: %+v", gpu.Stats())
	}
	gpu.Free(m)
	if gpu.Stats().BytesAllocated != 0 {
		t.Errorf("free accounting: %+v", gpu.Stats())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected simulated OOM panic")
		}
	}()
	gpu.NewMat(1024, 1024) // 4 MB > 1 MB
}

func TestGPUElementwiseKernels(t *testing.T) {
	gpu := NewGPU(DefaultGPUConfig())
	x := []float32{1, 2}
	y := []float32{3, 4}
	z := make([]float32, 2)
	gpu.VsMul(x, y, z)
	if z[0] != 3 || z[1] != 8 {
		t.Errorf("VsMul = %v", z)
	}
	gpu.VsAdd(x, y, z)
	if z[0] != 4 || z[1] != 6 {
		t.Errorf("VsAdd = %v", z)
	}
	gpu.Copy(z, x)
	if z[0] != 1 {
		t.Errorf("Copy = %v", z)
	}
	sg := []float32{0}
	gpu.Sigmoid(sg)
	if sg[0] != 0.5 {
		t.Errorf("Sigmoid = %v", sg)
	}
	th := []float32{0}
	gpu.Tanh(th)
	if th[0] != 0 {
		t.Errorf("Tanh = %v", th)
	}
	if gpu.Stats().KernelLaunches != 5 {
		t.Errorf("kernel launches = %d, want 5", gpu.Stats().KernelLaunches)
	}
}

func TestResetStats(t *testing.T) {
	gpu := NewGPU(DefaultGPUConfig())
	gpu.Sigmoid(make([]float32, 100))
	gpu.ResetStats()
	if st := gpu.Stats(); st.ModeledTime != 0 || st.KernelLaunches != 0 {
		t.Errorf("reset failed: %+v", st)
	}
	cpu := NewCPU()
	cpu.NewMat(4, 4)
	cpu.ResetStats()
	if cpu.Stats().BytesAllocated != 0 {
		t.Error("cpu reset failed")
	}
}

func TestDeviceInterfaceCompliance(t *testing.T) {
	var _ Device = NewCPU()
	var _ Device = NewGPU(DefaultGPUConfig())
	if NewCPU().IsGPU() || NewCPU().Name() != "cpu" {
		t.Error("cpu identity wrong")
	}
	if !NewGPU(DefaultGPUConfig()).IsGPU() {
		t.Error("gpu identity wrong")
	}
}

// TestGPUGemmCharges: the modeled device runs GemmBiasAct as the Sec. 5.4
// sequence — a bias-matrix copy unless the bias is nil (the accumulating
// gemm), the sgemm, an activation kernel unless ActNone — and is charged
// one launch and its modeled time per kernel.
func TestGPUGemmCharges(t *testing.T) {
	cfg := DefaultGPUConfig()
	a, w, c := blas.NewMat(100, 30), blas.PackB(blas.NewMat(30, 20)), blas.NewMat(100, 20)
	bias := make([]float32, 20)
	gemm := cfg.KernelLaunch + time.Duration(float64(blas.FlopsGemm(100, 30, 20))/cfg.GemmThroughput*float64(time.Second))
	elem := cfg.KernelLaunch + time.Duration(float64(100*20)/cfg.ElementwiseThroughput*float64(time.Second))
	for _, tc := range []struct {
		bias     []float32
		act      blas.Activation
		launches int64
		modeled  time.Duration
	}{
		{nil, blas.ActNone, 1, gemm},
		{bias, blas.ActNone, 2, elem + gemm},
		{bias, blas.ActTanh, 3, elem + gemm + elem},
	} {
		gpu := NewGPU(cfg)
		gpu.GemmBiasAct(a, w, tc.bias, tc.act, c)
		if st := gpu.Stats(); st.KernelLaunches != tc.launches || st.ModeledTime != tc.modeled {
			t.Errorf("bias %v act %d: %d launches, %v modeled; want %d, %v",
				tc.bias != nil, tc.act, st.KernelLaunches, st.ModeledTime, tc.launches, tc.modeled)
		}
	}
}

// TestGPUEmulationTimeIsWallClock: concurrent callers' emulation overlaps
// instead of adding, so the host-emulation time a harness subtracts from
// wall time can never exceed that wall time.
func TestGPUEmulationTimeIsWallClock(t *testing.T) {
	gpu := NewGPU(DefaultGPUConfig())
	const callers = 8
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, c := gpu.NewMat(96, 96), gpu.NewMat(96, 96)
			pa := blas.PackB(a)
			for k := 0; k < 40; k++ {
				gpu.GemmBiasAct(a, pa, nil, blas.ActNone, c)
				gpu.Sigmoid(c.Data)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := gpu.Stats()
	if st.HostEmulationTime <= 0 || st.HostEmulationTime > elapsed {
		t.Errorf("HostEmulationTime = %v, want in (0, %v] (elapsed wall)", st.HostEmulationTime, elapsed)
	}
	if st.KernelLaunches != callers*40*2 {
		t.Errorf("kernel launches = %d, want %d", st.KernelLaunches, callers*40*2)
	}
}
