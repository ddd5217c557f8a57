package modeljoin

import (
	"fmt"
	"testing"

	"indbml/internal/core/relmodel"
	"indbml/internal/device"
	"indbml/internal/nn"
)

// BenchmarkModelJoinBuild measures the build phase in isolation: parsing the
// relational model table into device-resident weight matrices (Sec. 5.2).
// This is exactly the work a hit in the engine's cross-query artifact cache
// skips, so these numbers bound the per-query saving of the cache.
func BenchmarkModelJoinBuild(b *testing.B) {
	dev := device.NewCPU()
	for _, spec := range []struct {
		width, depth, parts int
		serial              bool
	}{
		{32, 2, 4, false},
		{256, 4, 1, false},
		{256, 4, 4, false},
		{256, 4, 4, true},
	} {
		name := fmt.Sprintf("dense%dx%d/parts%d", spec.width, spec.depth, spec.parts)
		if spec.serial {
			name += "/serial"
		}
		b.Run(name, func(b *testing.B) {
			model := nn.NewDenseModel("m", 4, spec.width, spec.depth, 2, 11)
			buildN(b, model, spec.parts, dev, Config{SerialBuild: spec.serial})
		})
	}
	// The Sec. 5.2 GPU build ablation: build on the host and upload each
	// finished matrix once, or transfer every element individually. The
	// simulated device's modeled seconds are what the paper compares.
	for _, fine := range []bool{false, true} {
		name := "dense128x4/gpu/build-then-copy"
		if fine {
			name = "dense128x4/gpu/fine-grained"
		}
		b.Run(name, func(b *testing.B) {
			gpu := device.NewGPU(device.DefaultGPUConfig())
			buildN(b, nn.NewDenseModel("m", 4, 128, 4, 2, 11), 4, gpu, Config{FineGrainedGPUBuild: fine})
			b.ReportMetric(gpu.Stats().ModeledTime.Seconds()/float64(b.N), "sim-sec/op")
		})
	}
	b.Run("lstm32/parts4", func(b *testing.B) {
		buildN(b, nn.NewLSTMModel("lm", 3, 32, 9), 4, dev, Config{})
	})
}

// buildN exports model into parts partitions and times b.N cold builds of
// it on dev.
func buildN(b *testing.B, model *nn.Model, parts int, dev device.Device, cfg Config) {
	tbl, meta, err := relmodel.Export(model, relmodel.ExportOptions{Partitions: parts})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sm := &SharedModel{Table: tbl, Meta: meta, Dev: dev, Cfg: cfg}
		if _, err := sm.Build(); err != nil {
			b.Fatal(err)
		}
		sm.Release()
	}
	b.StopTimer()
}
