// Package device abstracts the compute device the ModelJoin operator (and
// the baselines, which run its compiled model) executes its linear algebra
// on. The paper implements a CPU variant (Intel MKL) and a GPU variant
// (NVIDIA A100 + cuBLAS, PCIe attached); this reproduction has no GPU, so
// the GPU device is *simulated*:
//
//   - it owns a separate "device memory" arena: buffers allocated on the GPU
//     device are distinct from host memory and all host↔device traffic goes
//     through explicit Upload/Download calls, so the code paths (including
//     the paper's "build on host, then copy once" optimization, Sec. 5.2)
//     are structurally identical to a real GPU integration;
//   - every operation is executed for real on the host so results are exact;
//   - a calibrated performance model charges *modeled device time* for each
//     operation: kernel-launch latency plus FLOPs at a modeled throughput,
//     and per-byte PCIe transfer cost for copies.
//
// Experiments report, for GPU series, wall time with the host time spent
// emulating device work replaced by the modeled device time (see Stats).
// This preserves the two effects the paper discusses — transfer overhead
// dominating small models, throughput advantage for large ones — while every
// CPU-series number in this repo remains real measured time.
package device

import (
	"sync"
	"sync/atomic"
	"time"

	"indbml/internal/blas"
)

// Device is the compute-device interface the ModelJoin operator is written
// against. All matrices handed to kernel methods must have been allocated on
// (or uploaded to) the same device.
type Device interface {
	// Name identifies the device for logs and experiment output.
	Name() string
	// IsGPU reports whether the device models a discrete accelerator with
	// separate memory.
	IsGPU() bool

	// NewMat allocates a zeroed rows×cols matrix in device memory.
	NewMat(rows, cols int) blas.Mat
	// Free releases a device matrix allocated with NewMat.
	Free(m blas.Mat)
	// Upload copies host data into a device matrix (cudaMemcpyHostToDevice).
	Upload(dst blas.Mat, src []float32)
	// Download copies a device matrix back to host memory.
	Download(dst []float32, src blas.Mat)

	// GemmBiasAct computes C = act(A·W + bias) on the device in one fused
	// call over weights packed at model build (blas.GemmBiasAct); a nil bias
	// accumulates, C += A·W. It returns the host kernel busy time summed over
	// the workers that shared the rows.
	GemmBiasAct(a blas.Mat, w *blas.PackedB, bias []float32, act blas.Activation, c blas.Mat) time.Duration
	// Copy copies src to dst within device memory.
	Copy(dst, src []float32)
	// VsMul computes z = x ⊙ y elementwise on the device.
	VsMul(x, y, z []float32)
	// VsAdd computes z = x + y elementwise on the device.
	VsAdd(x, y, z []float32)
	// Sigmoid and Tanh apply activation kernels in place.
	Sigmoid(x []float32)
	Tanh(x []float32)

	// Stats returns accumulated accounting since the last ResetStats.
	Stats() Stats
	// ResetStats zeroes the accounting counters.
	ResetStats()
}

// Stats accounts for device activity. For the CPU device only BytesAllocated
// is meaningful (kernels run inline and are captured by wall time). For the
// simulated GPU, ModeledTime is what the device *would* have taken, and
// HostEmulationTime is the real wall-clock time the host was busy producing
// the exact results; experiment harnesses report
// wall − HostEmulationTime + ModeledTime.
type Stats struct {
	// ModeledTime is the simulated device-side execution time.
	ModeledTime time.Duration
	// HostEmulationTime is the wall-clock time during which at least one
	// device kernel or transfer was being emulated on the host. Concurrent
	// emulations overlap rather than add, so it never exceeds the elapsed
	// wall time it is subtracted from.
	HostEmulationTime time.Duration
	// BytesH2D and BytesD2H count host↔device transfer volume.
	BytesH2D, BytesD2H int64
	// KernelLaunches counts device kernel invocations.
	KernelLaunches int64
	// BytesAllocated is the current device-memory footprint.
	BytesAllocated int64
	// PeakBytesAllocated is the high-water mark of device memory.
	PeakBytesAllocated int64
}

// CPU is the host device: kernels dispatch straight to package blas and run
// with goroutine parallelism. It is safe for concurrent use.
type CPU struct {
	bytes     atomic.Int64
	peakBytes atomic.Int64
}

// NewCPU returns the host device.
func NewCPU() *CPU { return &CPU{} }

// Name implements Device.
func (c *CPU) Name() string { return "cpu" }

// IsGPU implements Device.
func (c *CPU) IsGPU() bool { return false }

// NewMat implements Device.
func (c *CPU) NewMat(rows, cols int) blas.Mat {
	m := blas.NewMat(rows, cols)
	c.account(int64(rows*cols) * 4)
	return m
}

// Free implements Device.
func (c *CPU) Free(m blas.Mat) { c.account(-int64(m.Rows*m.Cols) * 4) }

func (c *CPU) account(delta int64) {
	n := c.bytes.Add(delta)
	for {
		peak := c.peakBytes.Load()
		if n <= peak || c.peakBytes.CompareAndSwap(peak, n) {
			return
		}
	}
}

// Upload implements Device; on the host it is a plain copy.
func (c *CPU) Upload(dst blas.Mat, src []float32) { copy(dst.Data, src) }

// Download implements Device; on the host it is a plain copy.
func (c *CPU) Download(dst []float32, src blas.Mat) { copy(dst, src.Data) }

// GemmBiasAct implements Device.
func (c *CPU) GemmBiasAct(a blas.Mat, w *blas.PackedB, bias []float32, act blas.Activation, m blas.Mat) time.Duration {
	return blas.GemmBiasAct(a, w, bias, act, m)
}

// Copy implements Device.
func (c *CPU) Copy(dst, src []float32) { blas.Scopy(dst, src) }

// VsMul implements Device.
func (c *CPU) VsMul(x, y, z []float32) { blas.VsMul(x, y, z) }

// VsAdd implements Device.
func (c *CPU) VsAdd(x, y, z []float32) { blas.VsAdd(x, y, z) }

// Sigmoid implements Device.
func (c *CPU) Sigmoid(x []float32) { blas.Sigmoid(x) }

// Tanh implements Device.
func (c *CPU) Tanh(x []float32) { blas.Tanh(x) }

// Stats implements Device.
func (c *CPU) Stats() Stats {
	return Stats{BytesAllocated: c.bytes.Load(), PeakBytesAllocated: c.peakBytes.Load()}
}

// ResetStats implements Device.
func (c *CPU) ResetStats() {
	c.bytes.Store(0)
	c.peakBytes.Store(0)
}

// GPUConfig parameterizes the simulated GPU's performance model.
type GPUConfig struct {
	// Name labels the device in experiment output.
	Name string
	// PCIeBandwidth is the modeled host↔device bandwidth in bytes/second.
	PCIeBandwidth float64
	// TransferLatency is the fixed cost per Upload/Download call.
	TransferLatency time.Duration
	// KernelLaunch is the fixed cost per kernel invocation.
	KernelLaunch time.Duration
	// GemmThroughput is the modeled matrix-multiply rate in FLOP/s.
	GemmThroughput float64
	// ElementwiseThroughput is the modeled rate for elementwise kernels and
	// activations, in elements/s.
	ElementwiseThroughput float64
	// MemoryBytes is the modeled device memory capacity (A100: 40 GB). The
	// simulation panics if allocations exceed it, mirroring a CUDA OOM.
	MemoryBytes int64
	// Pace makes the simulation *occupy* modeled device time instead of
	// only accounting for it: each operation sleeps out the portion of its
	// modeled time not already covered by host emulation, serialized on a
	// per-device pacing mutex so concurrent callers queue for the device
	// exactly as CUDA streams on one GPU would. Sleeping burns no CPU, so
	// paced GPUs let N processes on an M<N-core host scale like N real
	// accelerators — this is what the scale-out bench uses to measure
	// distributed speedup honestly on a small machine.
	Pace bool
}

// DefaultGPUConfig models a PCIe-attached data-center GPU, scaled so its
// ratios to this host's measured CPU throughput resemble the paper's
// A100-vs-EPYC setup: ~16 GB/s effective PCIe, microsecond-scale launch
// latencies, and gemm throughput 20× a multicore CPU BLAS — here the
// ~130 GFLOP/s blas.Sgemm's AVX2 kernel sustained on the benchmark host's two
// cores at 1024-row batches (BenchmarkSgemm: 107–158 over widths 128–512).
// The constant stays: GPU[sim] models a fixed device, and retuning it would
// move Fig. 8/9. On a host that runs the AVX-512 kernel the CPU is faster,
// so the device's ratio to it is lower than 20×; EXPERIMENTS.md's CPU/GPU
// cells are re-measured with the figure sweep (ROADMAP item 4), not here.
func DefaultGPUConfig() GPUConfig {
	return GPUConfig{
		Name:                  "gpu-sim",
		PCIeBandwidth:         16e9,
		TransferLatency:       10 * time.Microsecond,
		KernelLaunch:          5 * time.Microsecond,
		GemmThroughput:        20 * 130e9,
		ElementwiseThroughput: 25e9,
		MemoryBytes:           40 << 30,
	}
}

// GPU is the simulated accelerator. See the package comment for the
// simulation contract. It is safe for concurrent use.
type GPU struct {
	cfg GPUConfig

	// paceMu serializes paced occupancy (see GPUConfig.Pace): one operation
	// holds the device at a time, and the sleep happens while holding it so
	// queued operations see realistic device-busy waits.
	paceMu sync.Mutex

	mu        sync.Mutex
	modeled   time.Duration
	emulation time.Duration // closed busy intervals; see begin/charge
	inflight  int           // emulations currently running on the host
	busySince time.Time     // when inflight last left zero
	h2d, d2h  int64
	launches  int64
	bytes     int64
	peakBytes int64
}

// NewGPU returns a simulated GPU with the given configuration.
func NewGPU(cfg GPUConfig) *GPU {
	if cfg.Name == "" {
		cfg.Name = "gpu-sim"
	}
	return &GPU{cfg: cfg}
}

// Name implements Device.
func (g *GPU) Name() string { return g.cfg.Name }

// IsGPU implements Device.
func (g *GPU) IsGPU() bool { return true }

// NewMat implements Device. The returned matrix lives in the simulated
// device arena: it must only be touched through device methods.
func (g *GPU) NewMat(rows, cols int) blas.Mat {
	n := int64(rows*cols) * 4
	g.mu.Lock()
	g.bytes += n
	if g.bytes > g.peakBytes {
		g.peakBytes = g.bytes
	}
	if g.cfg.MemoryBytes > 0 && g.bytes > g.cfg.MemoryBytes {
		g.mu.Unlock()
		panic("device: simulated GPU out of memory")
	}
	g.mu.Unlock()
	return blas.NewMat(rows, cols)
}

// Free implements Device.
func (g *GPU) Free(m blas.Mat) {
	g.mu.Lock()
	g.bytes -= int64(m.Rows*m.Cols) * 4
	g.mu.Unlock()
}

// begin opens one emulated operation: the host is busy emulating from the
// first concurrent begin until the matching last charge.
func (g *GPU) begin() time.Time {
	now := time.Now()
	g.mu.Lock()
	if g.inflight == 0 {
		g.busySince = now
	}
	g.inflight++
	g.mu.Unlock()
	return now
}

// charge closes the operation opened by begin at start, accounting its
// modeled device time and kernel launches and, when it was the last one in
// flight, the busy interval it ends.
func (g *GPU) charge(modeled time.Duration, start time.Time, launches int64) {
	end := time.Now()
	g.mu.Lock()
	g.modeled += modeled
	g.inflight--
	if g.inflight == 0 {
		g.emulation += end.Sub(g.busySince)
	}
	g.launches += launches
	g.mu.Unlock()
	if g.cfg.Pace {
		if residual := modeled - end.Sub(start); residual > 0 {
			g.paceMu.Lock()
			time.Sleep(residual)
			g.paceMu.Unlock()
		}
	}
}

func (g *GPU) transferTime(bytes int) time.Duration {
	return g.cfg.TransferLatency + time.Duration(float64(bytes)/g.cfg.PCIeBandwidth*float64(time.Second))
}

// Upload implements Device, charging PCIe transfer time for every byte.
func (g *GPU) Upload(dst blas.Mat, src []float32) {
	start := g.begin()
	copy(dst.Data, src)
	n := len(src) * 4
	g.mu.Lock()
	g.h2d += int64(n)
	g.mu.Unlock()
	g.charge(g.transferTime(n), start, 0)
}

// Download implements Device, charging PCIe transfer time.
func (g *GPU) Download(dst []float32, src blas.Mat) {
	start := g.begin()
	copy(dst, src.Data)
	n := len(dst) * 4
	g.mu.Lock()
	g.d2h += int64(n)
	g.mu.Unlock()
	g.charge(g.transferTime(n), start, 0)
}

// GemmBiasAct implements Device. The multiply runs for real on the host
// (exact results) as one fused call, but the modeled device still runs the
// Sec. 5.4 sequence and is charged its launches: bias-matrix copy (none
// when the bias is nil), sgemm — launch latency plus FLOPs at the modeled
// throughput — and activation kernel.
func (g *GPU) GemmBiasAct(a blas.Mat, w *blas.PackedB, bias []float32, act blas.Activation, c blas.Mat) time.Duration {
	start := g.begin()
	busy := blas.GemmBiasAct(a, w, bias, act, c)
	modeled := g.gemmTime(a.Rows, a.Cols, c.Cols)
	launches := int64(1)
	if bias != nil {
		modeled += g.elementwiseTime(len(c.Data))
		launches++
	}
	if act != blas.ActNone {
		modeled += g.elementwiseTime(len(c.Data))
		launches++
	}
	g.charge(modeled, start, launches)
	return busy
}

func (g *GPU) gemmTime(m, k, n int) time.Duration {
	return g.cfg.KernelLaunch + time.Duration(float64(blas.FlopsGemm(m, k, n))/g.cfg.GemmThroughput*float64(time.Second))
}

func (g *GPU) elementwiseTime(n int) time.Duration {
	return g.cfg.KernelLaunch + time.Duration(float64(n)/g.cfg.ElementwiseThroughput*float64(time.Second))
}

func (g *GPU) elementwise(n int, start time.Time) {
	g.charge(g.elementwiseTime(n), start, 1)
}

// Copy implements Device (device-to-device copy).
func (g *GPU) Copy(dst, src []float32) {
	start := g.begin()
	blas.Scopy(dst, src)
	g.elementwise(len(dst), start)
}

// VsMul implements Device.
func (g *GPU) VsMul(x, y, z []float32) {
	start := g.begin()
	blas.VsMul(x, y, z)
	g.elementwise(len(x), start)
}

// VsAdd implements Device.
func (g *GPU) VsAdd(x, y, z []float32) {
	start := g.begin()
	blas.VsAdd(x, y, z)
	g.elementwise(len(x), start)
}

// Sigmoid implements Device.
func (g *GPU) Sigmoid(x []float32) {
	start := g.begin()
	blas.Sigmoid(x)
	g.elementwise(len(x), start)
}

// Tanh implements Device.
func (g *GPU) Tanh(x []float32) {
	start := g.begin()
	blas.Tanh(x)
	g.elementwise(len(x), start)
}

// Stats implements Device.
func (g *GPU) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{
		ModeledTime:        g.modeled,
		HostEmulationTime:  g.emulation,
		BytesH2D:           g.h2d,
		BytesD2H:           g.d2h,
		KernelLaunches:     g.launches,
		BytesAllocated:     g.bytes,
		PeakBytesAllocated: g.peakBytes,
	}
}

// ResetStats implements Device.
func (g *GPU) ResetStats() {
	g.mu.Lock()
	g.modeled, g.emulation = 0, 0
	g.h2d, g.d2h, g.launches = 0, 0, 0
	g.bytes, g.peakBytes = 0, 0
	g.mu.Unlock()
}
