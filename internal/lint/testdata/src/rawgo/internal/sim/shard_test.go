package sim

import "sync/atomic"

// The package's own tests drive the shard runtime from outside it and may
// use OS concurrency freely.
func concurrentCount(workers int) int64 {
	var n atomic.Int64
	barrier(workers, func(int) { n.Add(1) })
	return n.Load()
}
