package harness

import (
	"fmt"
	"runtime"
	"sync"
)

// This file is the concurrent experiment scheduler. A Runner owns a worker
// pool of up to Workers goroutines and a single-flight result cache keyed on
// CellSpec.cacheKey(). Every cell is an independent deterministic simulation
// confined to its own Engine/Machine/Arena, so cells can execute in any
// order on any worker without changing their measurements; RunAll reassembles
// results in declaration order, which makes every figure bit-identical to a
// serial (-workers 1) run.

// cellEntry is one single-flight cache slot. The goroutine that installs the
// entry computes the result; every other goroutine asking for the same key
// blocks on done. Waiters do not hold a worker slot, so a figure waiting on a
// cell another figure is already computing cannot deadlock the pool.
type cellEntry struct {
	done chan struct{}
	res  *Result
}

// slots returns the worker-pool semaphore, sized on first use from Workers
// (or GOMAXPROCS when unset). Set Workers before the first Run/RunAll call.
func (r *Runner) slots() chan struct{} {
	r.initOnce.Do(func() {
		n := r.Workers
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		r.sem = make(chan struct{}, n)
	})
	return r.sem
}

// Run executes (or returns the cached measurement of) one cell. Concurrent
// calls with equal cache keys compute the cell exactly once.
func (r *Runner) Run(spec CellSpec) *Result {
	key := spec.cacheKey()
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.mu.Unlock()
		<-e.done
		return e.res
	}
	e := &cellEntry{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()

	sem := r.slots()
	sem <- struct{}{}
	e.res = r.execute(spec)
	<-sem
	close(e.done)
	return e.res
}

// RunAll submits every spec to the worker pool and returns the results in
// spec order. Duplicate specs (and specs shared with concurrent RunAll calls
// on the same Runner) are measured once and share one *Result.
func (r *Runner) RunAll(specs []CellSpec) []*Result {
	out := make([]*Result, len(specs))
	var wg sync.WaitGroup
	wg.Add(len(specs))
	for i := range specs {
		go func(i int) {
			defer wg.Done()
			out[i] = r.Run(specs[i])
		}(i)
	}
	wg.Wait()
	return out
}

// CellsExecuted reports how many cells this runner has actually simulated —
// cache hits and single-flight followers excluded. It is the observable the
// dedup tests assert on, and a useful cost summary for verbose runs.
func (r *Runner) CellsExecuted() int64 {
	return r.executed.Load()
}

// FigureCells lists every distinct cell the given figures render, in order of
// first use, without running any. Table 1 and the live figures contribute
// none, and neither do unknown IDs.
func (r *Runner) FigureCells(ids []string) []CellSpec {
	var specs []CellSpec
	seen := make(map[string]bool)
	for _, id := range ids {
		f := simFigureByID(id)
		if f == nil {
			continue
		}
		for _, row := range f.rows(r, f.rw) {
			if k := row.spec.cacheKey(); !seen[k] {
				seen[k] = true
				specs = append(specs, row.spec)
			}
		}
	}
	return specs
}

// BuildFigures renders the given figures against one shared runner. Every
// cell they render is simulated first, in one RunAll that fills the worker
// pool; then the figures render one after another in ids order, the
// simulated ones from the cache and the live ones measuring as they go, so
// no live measurement contends with a simulation. Output is identical to
// building the figures one at a time.
func BuildFigures(r *Runner, ids []string) ([]*Figure, error) {
	builders := make([]Builder, len(ids))
	for i, id := range ids {
		b, ok := FigureBuilder(id)
		if !ok {
			return nil, fmt.Errorf("harness: unknown figure %q", id)
		}
		builders[i] = b
	}
	r.RunAll(r.FigureCells(ids))
	figs := make([]*Figure, len(ids))
	for i, b := range builders {
		figs[i] = b(r)
	}
	return figs, nil
}
