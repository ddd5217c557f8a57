package blas

import (
	"runtime"
	"sync"
)

// The kernel worker pool. The serving hot path calls BLAS kernels on every
// batch of every query; spawning and joining a fresh set of goroutines per
// kernel puts a scheduler round-trip on each call. Instead a fixed set of
// workers is started once, on the first parallel kernel, and row-range tasks
// are handed to them over a channel — the analogue of MKL's persistent
// thread team.
//
// The task channel is unbuffered: a chunk goes only to an idle worker, else
// (e.g. under the engine's partition-parallel plans) the caller runs it
// inline. No chunk queues behind another kernel's, no caller ever blocks,
// and nested parallelism is deadlock-free by construction.

// rowJob is a kernel that can be split by rows: runRows computes rows
// [lo, hi), and disjoint ranges may run concurrently.
type rowJob interface {
	runRows(lo, hi int)
}

// rowTask is one contiguous row range of a parallel kernel.
type rowTask struct {
	job    rowJob
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	poolOnce    sync.Once
	poolTasks   chan rowTask
	poolWorkers int

	// wgPool recycles the per-call barrier so a fanned-out kernel allocates
	// nothing in steady state.
	wgPool = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// startPool launches the worker team: GOMAXPROCS-1 workers, because the
// caller always works on a chunk itself while the team runs the rest.
func startPool() {
	poolWorkers = max(runtime.GOMAXPROCS(0)-1, 1)
	poolTasks = make(chan rowTask)
	for range poolWorkers {
		go func() {
			for t := range poolTasks {
				t.job.runRows(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
}

// parallelThreshold is the amount of scalar work below which kernels stay
// single-threaded; fan-out only pays off for larger inputs.
const parallelThreshold = 1 << 22

// parallelRows splits rows [0, n) across the worker pool and waits for
// completion. The worker count scales with the amount of work so small
// kernels (which are common when the engine already runs partition-parallel
// plans around the BLAS calls) stay single-threaded instead of
// oversubscribing cores. Chunk boundaries are multiples of mr (the gemm
// tile height), so only the last chunk can end in a partial tile. The
// calling goroutine always executes the first chunk itself.
func parallelRows(n, work int, job rowJob) {
	workers := runtime.GOMAXPROCS(0)
	if byWork := work / parallelThreshold; byWork < workers {
		workers = byWork
	}
	if workers > n {
		workers = n
	}
	chunk := n
	if workers >= 2 {
		chunk = (n + workers - 1) / workers
		chunk = (chunk + mr - 1) / mr * mr
	}
	if chunk >= n {
		if n > 0 {
			job.runRows(0, n)
		}
		return
	}
	poolOnce.Do(startPool)
	wg := wgPool.Get().(*sync.WaitGroup)
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		select {
		case poolTasks <- rowTask{job: job, lo: lo, hi: hi, wg: wg}:
		default:
			// No idle worker: run inline rather than wait for one.
			job.runRows(lo, hi)
			wg.Done()
		}
	}
	job.runRows(0, chunk)
	wg.Wait()
	wgPool.Put(wg)
}
