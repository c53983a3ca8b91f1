package sim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"

	"waferswitch/internal/obs"
)

// Pool is the worker pool every fan-out of independent points runs on:
// the load points of a set of sweeps (Sweeps) and an experiment's grid
// cells, fabrics and sizes (internal/expt). It is the only code under
// internal/ that starts worker goroutines. (It is unrelated to the slot pool an input
// port keeps its flits in.)
type Pool struct {
	// Workers bounds the worker goroutines: 0 means GOMAXPROCS. The
	// count is clamped to [1, n], and it is 1 when GOMAXPROCS is 1:
	// every caller's results are identical for any worker count, so a
	// fan-out on one schedulable core would buy no parallelism, only
	// scheduling and per-worker state.
	Workers int
	// Ctx, when non-nil, is the parent context of the workers' pprof
	// labels; pass one carrying an experiment label and profile samples
	// keep it. It is used only for labels; cancellation is not observed.
	Ctx context.Context
	// Live, when non-nil, receives the item total up front, each
	// worker's current item while it runs, and a tick per finished
	// item, failed or not.
	Live *obs.Live
}

// workers returns the number of worker goroutines for n items.
func (p Pool) workers(n int) int {
	procs := runtime.GOMAXPROCS(0)
	w := p.Workers
	if w <= 0 || procs == 1 {
		w = procs
	}
	return max(1, min(w, n))
}

// Each runs items 0..n-1 and returns the lowest-index error, if any;
// every item runs whether or not another failed. Each worker calls
// newWorker once and runs its items with the function it returns, so
// per-worker state — a sweep worker's warm network — lives in that
// closure and becomes garbage as soon as its worker exits. Items must be
// independent and write only their own index slot: which worker runs
// which item is unspecified, so anything order-sensitive belongs after
// Each returns, iterating in index order.
//
// With one worker, items run inline on the calling goroutine in index
// order, under the caller's pprof labels, and order is ignored. With
// more, workers take items from a shared counter in order, a
// permutation of 0..n-1 (nil means ascending), labelled pool=<name>,
// worker=<k> and point=<i>. A panic in an item is recovered into the error
// "sim: <name> point <i> panicked: <value>".
func (p Pool) Each(name string, n int, order []int, newWorker func() func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if p.Live != nil {
		p.Live.AddTotal(n)
	}
	errs := make([]error, n)
	workers := p.workers(n)
	if workers == 1 {
		run, worker := newWorker(), p.workerName(name, 0)
		for i := range n {
			errs[i] = p.item(name, worker, i, run)
		}
	} else {
		parent := p.Ctx
		if parent == nil {
			parent = context.Background()
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pprof.Do(parent, pprof.Labels("pool", name, "worker", strconv.Itoa(w)),
					func(ctx context.Context) {
						run, worker := newWorker(), p.workerName(name, w)
						for {
							i := int(next.Add(1)) - 1
							if i >= n {
								return
							}
							if order != nil {
								i = order[i]
							}
							pprof.Do(ctx, pprof.Labels("point", strconv.Itoa(i)),
								func(context.Context) { errs[i] = p.item(name, worker, i, run) })
						}
					})
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// workerName is worker w's key in Live; it is built only when there
// is a Live to report to, so a pool without one allocates nothing per
// worker or item.
func (p Pool) workerName(name string, w int) string {
	if p.Live == nil {
		return ""
	}
	return name + "/w" + strconv.Itoa(w)
}

// item runs item i on a worker, publishing the assignment to Live
// around it, and turns a panic into an error that names the item.
func (p Pool) item(name, worker string, i int, run func(i int) error) (err error) {
	if p.Live != nil {
		p.Live.SetWorker(worker, fmt.Sprintf("%s/point=%d", name, i))
		defer func() {
			p.Live.SetWorker(worker, "")
			p.Live.PointDone()
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sim: %s point %d panicked: %v", name, i, r)
		}
	}()
	return run(i)
}
