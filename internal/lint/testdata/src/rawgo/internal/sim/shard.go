// Package sim stands in for the engine package. This file plays the shard
// runtime: the one place in simulation code where OS concurrency is legal,
// because the conservative window protocol orders it.
package sim

import "sync"

func barrier(workers int, work func(int)) {
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
}
