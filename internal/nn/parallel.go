package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count: any value below one means
// one worker per available CPU (GOMAXPROCS). The parallel training and
// inference paths are bit-identical across worker counts, so "auto" is
// always a safe default.
func Workers(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// parallel runs fn(w, u) for every unit u in [0, units) on at most
// workers goroutines, the caller's among them; w in [0, workers)
// identifies the goroutine, for per-worker scratch. Units are claimed
// from a shared cursor, so callers must make the result independent of
// which worker runs which unit.
func parallel(workers, units int, fn func(w, u int)) {
	if workers > units {
		workers = units
	}
	if workers <= 1 {
		for u := 0; u < units; u++ {
			fn(0, u)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	run := func(w int) {
		for {
			u := int(next.Add(1)) - 1
			if u >= units {
				return
			}
			fn(w, u)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
}
