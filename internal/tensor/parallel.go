package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the process-wide kernel worker pool: a fixed set of
// long-lived goroutines that the parallel kernels (attention row/range
// sharding, the accelerator's per-group dataflow, large GEMMs) borrow for
// the duration of one call. Launching goroutines per call would cost an
// allocation and a scheduler wakeup per worker per op; the pool makes a
// parallel kernel call cost one job descriptor allocation regardless of
// context length or worker count.
//
// Determinism contract: ParallelFor runs fn(i) exactly once for every index,
// on an unspecified goroutine at an unspecified time. Callers keep the
// repository's bit-identical replay invariant by making fn(i) write only
// state owned by item i (index-ordered assembly) and by reducing item
// results in a fixed order afterwards (e.g. attention's fixed-shape
// tree-merge) — never in goroutine completion order.

// DefaultWorkers returns the worker count the parallel kernels (attention
// Blocked/GQA/TopKBlocks, accel.Attention, large MatMul calls) shard across:
// runtime.GOMAXPROCS at call time. Results are bit-identical for every
// worker count; the count only trades call latency against CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// job is one ParallelFor invocation: a shared atomic item cursor plus the
// body. Pool workers and the submitting goroutine all drain the same cursor,
// so work balances across whoever is free without affecting which item runs
// which index.
type job struct {
	next atomic.Int64
	n    int
	fn   func(i int)
	wg   sync.WaitGroup
}

// run grabs items off the shared cursor until none remain.
func (j *job) run() {
	for {
		i := int(j.next.Add(1)) - 1
		if i >= j.n {
			return
		}
		j.fn(i)
	}
}

var (
	poolOnce sync.Once
	poolJobs chan *job
)

// startPool launches the long-lived workers. Pool size is the physical CPU
// count; actual concurrency per call is bounded by the workers argument to
// ParallelFor, so an idle pool costs only parked goroutines.
func startPool() {
	n := runtime.NumCPU()
	poolJobs = make(chan *job, 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for j := range poolJobs {
				j.run()
				j.wg.Done()
			}
		}()
	}
}

// ParallelFor runs fn(i) for every i in [0, n) using at most the given
// number of concurrent workers (the calling goroutine included). workers ≤ 1
// or n ≤ 1 runs inline with no synchronization. The caller always
// participates in draining the items, so ParallelFor never deadlocks even
// when invoked from inside another ParallelFor body or when the pool is
// saturated — helpers are opportunistic, progress is the caller's own.
//
// fn must confine its writes to state owned by item i; see the determinism
// contract above.
func ParallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	poolOnce.Do(startPool)
	j := &job{n: n, fn: fn}
	for h := 0; h < workers-1; h++ {
		j.wg.Add(1)
		select {
		case poolJobs <- j:
		default:
			// Pool saturated (e.g. deeply nested calls): skip the helper;
			// the caller's own drain loop below guarantees completion.
			j.wg.Done()
		}
	}
	j.run()
	j.wg.Wait()
}

// matMulParallelFlops is the work floor (element multiplications) above
// which MatMul shards rows across the worker pool. Row results are
// independent, so the parallel product is bit-identical to the serial one.
const matMulParallelFlops = 1 << 21
