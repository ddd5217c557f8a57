//go:build !amd64 || purego

package blas

func testKernels() []testKernel { return []testKernel{{"go", func() {}}} }

func restoreKernel() {}
