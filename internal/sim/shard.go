package sim

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Sharded execution: a Group partitions one simulation across several
// Engines ("shards"), each with its own event arena, heap and process set,
// and runs them on parallel goroutines under a conservative time-window
// protocol.
//
// The scheme exploits the same property of the modeled system that the
// paper's cluster architecture rests on: hosts interact only through links
// with a fixed minimum latency (cell serialization plus fiber propagation),
// so an event executing at virtual time t in one shard cannot affect
// another shard before t+L, where L is the latency of the link between
// them. Every cross-shard channel is registered as a directed exchange
// with a known producer (AddExchangeFrom) and its latency as the pair's
// lookahead (ObserveLookaheadBetween); the neighbor-synchronized window
// protocol in neighbor.go turns those edges into per-shard horizons.
//
// Within a window shards share no mutable state beyond the exchanges'
// lock-free rings, so they run without locks; determinism is preserved
// because cross-shard arrivals enter the destination engine as ordinary
// events, drained in a fixed registration order, and destination engines
// assign their usual (timestamp, sequence) tie-break to them.

// SyncKind names the shard synchronization protocol. Neighbor-synchronized
// windows are the only protocol, so the type has a single value; it stays
// so configurations that name it keep compiling.
type SyncKind struct{}

// SyncNeighbor is the neighbor-synchronized window protocol (neighbor.go)
// and the zero SyncKind.
var SyncNeighbor = SyncKind{}

// CrossSource is the contract of a cross-shard channel: its producer side
// is a lock-free SPSC ring, its consumer side stages arrivals into the
// destination engine as ordinary events.
//
// Drain(h) (called only by the destination's worker) moves published ring
// traffic into consumer-side staging and delivers every staged arrival
// before h through the destination engine's own event machinery — cross
// arrivals are just events there, so merge order with local work is the
// event heap's (timestamp, sequence) order. It reports the earliest arrival
// it keeps staged; the protocol calls it again once a window reaches that
// time. Staging until the window opens is what orders same-timestamp
// arrivals from different exchanges by registration order; an exchange may
// instead deliver later arrivals early, and those then take the
// destination's sequence order at delivery. Every message must arrive at
// or after its send time plus the pair lookahead.
//
// Producer-shard methods (called only by the source's worker): FlushSpill
// retries moving spilled messages into the ring; SpillBound reports the
// arrival time of the oldest still-spilled message, bounding how far the
// producer may publish.
//
// Pending and SpillPending read only atomics and may be called from any
// shard — the group's quiescence scan uses them.
type CrossSource interface {
	Drain(h time.Duration) (next time.Duration, staged bool)
	Pending() bool
	SpillPending() bool
	FlushSpill() bool
	SpillBound() (time.Duration, bool)
}

// exchange is one registered cross-shard channel: its producing shard, its
// ring, and the earliest arrival its last Drain kept staged (noEvent when
// none; written only by the destination's worker).
type exchange struct {
	src  int
	cs   CrossSource
	held int64
}

// pairKey indexes the per-pair lookahead observations.
type pairKey struct{ src, dst int }

// Group coordinates the shards of one simulation. Create it implicitly via
// Engine.NewShard on the root engine; drive it by calling Run/RunUntil on
// the root.
type Group struct {
	root      *Engine
	shards    []*Engine
	pairLA    map[pairKey]time.Duration // direct per-pair minima
	minLA     time.Duration             // min over every observed bound (diagnostic)
	exchanges [][]exchange              // per destination shard id, in registration order

	// Run state, set up by run and setupNeighbor before any worker
	// goroutine exists (prof accumulates across runs). pub, sigs, nextAt,
	// waiting, gmin and ndone are the only cross-shard-mutable pieces and
	// are all atomics or mutex-guarded; the edge sets are immutable during
	// a run.
	nextAt   []atomic.Int64 // per-shard earliest pending event, read by the quiescence scan
	prof     []ShardProfile // per-shard counters, written only by the shard's worker
	pub      []paddedClock  // published per-shard clocks, cache-line padded
	sigs     []shardSignal  // per-shard wake channels
	waiting  atomic.Int32   // shards currently blocked in waitNeighbor
	waitGen  atomic.Uint64  // wait entries; guards quiescentScan vs ABA on waiting
	gmin     atomic.Int64   // quiescence floor: global min next-event time
	ndone    atomic.Bool    // run termination flag
	scanMu   sync.Mutex     // serializes quiescentScan
	inEdges  [][]inEdge     // direct in-edges per shard, ordered by source
	outEdges [][]outEdge    // producer-side exchange handles per shard
	outNbrs  [][]int        // distinct out-neighbor shard ids per shard
	minInLA  []int64        // min in-edge lookahead per shard (floor lift)
	aborted  atomic.Bool
	failure  atomic.Value // string
}

// NewShard creates a new shard engine attached to e's group, creating the
// group on first use (e becomes shard 0, the root). Only the root engine
// may be driven with Run/RunUntil; shard engines are populated with
// processes and events and then executed by the group. Shards must be
// created before the first Run.
func (e *Engine) NewShard(seed int64) *Engine {
	if e.group == nil {
		e.group = &Group{root: e, shards: []*Engine{e}, exchanges: make([][]exchange, 1)}
		e.shardID = 0
	}
	g := e.group
	if g.root != e {
		panic("sim: NewShard must be called on the group's root engine")
	}
	s := NewWithScheduler(seed, e.Scheduler())
	s.group = g
	s.shardID = len(g.shards)
	g.shards = append(g.shards, s)
	g.exchanges = append(g.exchanges, nil)
	return s
}

// Group returns the shard group e belongs to (nil for a plain serial
// engine).
func (e *Engine) Group() *Group { return e.group }

// ShardID returns e's index within its group (0 for the root or a plain
// serial engine).
func (e *Engine) ShardID() int { return e.shardID }

// Shards reports the number of engines in the group, including the root.
func (g *Group) Shards() int { return len(g.shards) }

// Root returns the group's root engine.
func (g *Group) Root() *Engine { return g.root }

// AddExchangeFrom registers cs as a channel from shard src into shard dst.
// dst drains it at its round tops, bounded by the src→dst pair lookahead
// (ObserveLookaheadBetween), which must be observed before the first run.
// Exchanges registered for the same destination are drained in
// registration order, which fixes the deterministic tie-break between
// same-timestamp injections from different sources.
func (g *Group) AddExchangeFrom(src, dst *Engine, cs CrossSource) {
	if src.group != g || dst.group != g {
		panic("sim: AddExchangeFrom endpoints must be members of this group")
	}
	g.exchanges[dst.shardID] = append(g.exchanges[dst.shardID], exchange{src: src.shardID, cs: cs, held: noEvent})
}

// ObserveLookaheadBetween lower-bounds the direct src→dst path with d:
// every message sent from src to dst at time t must be scheduled at t+d or
// later. It constrains only that pair — shards linked by slow paths keep
// wide windows even when some other pair is tightly coupled.
func (g *Group) ObserveLookaheadBetween(src, dst *Engine, d time.Duration) {
	if d <= 0 {
		panic("sim: cross-shard lookahead must be positive")
	}
	if src.group != g || dst.group != g {
		panic("sim: ObserveLookaheadBetween endpoints must be members of this group")
	}
	if src == dst {
		panic("sim: ObserveLookaheadBetween endpoints are the same shard")
	}
	if g.pairLA == nil {
		g.pairLA = make(map[pairKey]time.Duration)
	}
	k := pairKey{src.shardID, dst.shardID}
	if cur, ok := g.pairLA[k]; !ok || d < cur {
		g.pairLA[k] = d
	}
	if g.minLA == 0 || d < g.minLA {
		g.minLA = d
	}
}

// Lookahead returns the tightest lookahead observed on any shard pair — the
// width a single global window would have to use. Individual shard pairs
// may enjoy wider windows; see Profile for how often they do.
func (g *Group) Lookahead() time.Duration { return g.minLA }

const noEvent = int64(math.MaxInt64)

// run executes the sharded simulation until global quiescence, or until
// every pending event lies beyond limit (limit < 0 means no limit). It is
// entered through Run/RunUntil on the root engine. The calling goroutine
// drives shard 0; every other shard gets a worker goroutine that lives for
// the duration of the call.
func (g *Group) run(limit time.Duration) time.Duration {
	n := len(g.shards)
	if len(g.nextAt) != n {
		g.nextAt = make([]atomic.Int64, n)
	}
	if len(g.prof) != n {
		g.prof = make([]ShardProfile, n)
		for i := range g.prof {
			g.prof[i].Shard = i
		}
	}
	g.setupNeighbor()
	var wg sync.WaitGroup
	for id := 1; id < n; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			g.runShardOrAbort(id, limit)
		}(id)
	}
	g.runShardOrAbort(0, limit)
	wg.Wait()
	if g.aborted.Load() {
		msg, _ := g.failure.Load().(string)
		panic("sim: shard aborted: " + msg)
	}
	now := g.root.now
	for _, s := range g.shards {
		if s.now > now {
			now = s.now
		}
	}
	return now
}

// runShardOrAbort runs shard id, converting a panic into a group-wide
// abort so the remaining shards do not wait on a neighbor that will never
// publish. The panic is swallowed here — a worker goroutine must not crash
// the process — and re-raised by run on the caller's goroutine once every
// shard has stopped. Only the first failure is recorded; the cascade panics
// the other shards raise when they observe the abort are not it. A
// runtime.Goexit (t.FailNow inside a process, carried out of the process's
// coroutine) aborts the group too.
func (g *Group) runShardOrAbort(id int, limit time.Duration) {
	returned := false
	defer func() {
		if r := recover(); !returned {
			if r == nil {
				r = "runtime.Goexit in a shard goroutine"
			}
			if g.aborted.CompareAndSwap(false, true) {
				g.failure.Store(fmt.Sprint(r))
			}
			g.notifyAll()
		}
	}()
	g.runShard(id, limit)
	returned = true
}

// satAdd adds two non-negative int64 durations, saturating at MaxInt64.
func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// stopFor converts RunUntil's inclusive limit into runWindow's exclusive
// bound.
func stopFor(limit time.Duration) time.Duration {
	if limit < 0 || limit >= math.MaxInt64-1 {
		return time.Duration(math.MaxInt64)
	}
	return limit + 1
}

// alignNow reproduces serial RunUntil's clock semantics at the end of a
// bounded run: the clock advances to the limit only when events remain
// beyond it, in the heap or staged in an in-exchange.
func (e *Engine) alignNow(limit time.Duration, staged bool) {
	if limit >= 0 && limit > e.now && (staged || e.PendingEvents() > 0) {
		e.now = limit
	}
}

// shutdown terminates every shard's processes (root last, matching the
// order resources were created in reverse).
func (g *Group) shutdown() {
	for i := len(g.shards) - 1; i >= 1; i-- {
		g.shards[i].shutdownLocal()
	}
	g.root.shutdownLocal()
}
