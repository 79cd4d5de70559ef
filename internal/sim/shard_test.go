package sim

import (
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// shardMsg is a message crossing shards in tests: fire fn at time at on the
// destination engine.
type shardMsg struct {
	at time.Duration
	fn func()
}

// ringMailbox is a minimal cross-shard channel for exercising the window
// protocol directly: a CrossSource whose producer side is an SPSC ring,
// the way fabric's cross links are built. The producer shard pushes timed
// callbacks as it runs; the destination drains them at its round tops
// into ordinary engine events, holding back arrivals the destination's
// window has not reached yet.
type ringMailbox struct {
	dst    *Engine
	ring   *SPSC[shardMsg]
	staged []shardMsg // popped, not yet delivered (arrival at or past the horizon)
}

func newRingMailbox(g *Group, src, dst *Engine) *ringMailbox {
	m := &ringMailbox{dst: dst, ring: NewSPSC[shardMsg](8)}
	g.AddExchangeFrom(src, dst, m)
	return m
}

// send is called by the producing shard during its window.
func (m *ringMailbox) send(at time.Duration, fn func()) {
	m.ring.Push(shardMsg{at: at, fn: fn})
}

func (m *ringMailbox) Drain(h time.Duration) (time.Duration, bool) {
	for {
		msg, ok := m.ring.Pop()
		if !ok {
			break
		}
		m.staged = append(m.staged, msg)
	}
	next, held := time.Duration(math.MaxInt64), false
	kept := m.staged[:0]
	for _, msg := range m.staged {
		if msg.at < h {
			m.dst.At(msg.at, msg.fn)
			continue
		}
		kept = append(kept, msg)
		next, held = min(next, msg.at), true
	}
	m.staged = kept
	return next, held
}

func (m *ringMailbox) Pending() bool      { return m.ring.Pending() }
func (m *ringMailbox) SpillPending() bool { return m.ring.SpillLen() > 0 }
func (m *ringMailbox) FlushSpill() bool   { return m.ring.FlushSpill() }
func (m *ringMailbox) SpillBound() (time.Duration, bool) {
	msg, ok := m.ring.SpillHead()
	return msg.at, ok
}

func TestShardGroupIndependentShards(t *testing.T) {
	root := New(1)
	s1 := root.NewShard(2)
	var a, b time.Duration
	root.After(5*time.Millisecond, func() { a = root.Now() })
	s1.After(9*time.Millisecond, func() { b = s1.Now() })
	end := root.Run()
	if a != 5*time.Millisecond || b != 9*time.Millisecond {
		t.Fatalf("events fired at %v / %v", a, b)
	}
	if end != 9*time.Millisecond {
		t.Fatalf("Run returned %v, want 9ms (max over shards)", end)
	}
	// With no exchanges neither shard ever waits on the other: each runs
	// its whole event set in one window.
	if w := root.Group().Profile().Total().Windows; w != 2 {
		t.Fatalf("independent shards ran %d windows, want 2", w)
	}
}

func TestShardEngineRejectsDirectRun(t *testing.T) {
	root := New(1)
	s1 := root.NewShard(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Run on a shard engine did not panic")
		}
	}()
	s1.Run()
}

func TestShardCrossTrafficRespectsLookahead(t *testing.T) {
	// Shard 0 pings shard 1 every 100µs with a 10µs flight time; each ping
	// triggers a pong back over a faster 3µs path. The two directions carry
	// different pair lookaheads, and every delivery must land at exactly
	// the time a serial simulation would produce.
	const there, back = 10 * time.Microsecond, 3 * time.Microsecond
	root := New(1)
	s1 := root.NewShard(2)
	g := root.Group()
	toS1 := newRingMailbox(g, root, s1)
	toRoot := newRingMailbox(g, s1, root)
	g.ObserveLookaheadBetween(root, s1, there)
	g.ObserveLookaheadBetween(s1, root, back)

	var pings, pongs []time.Duration
	var pongBack func()
	pongBack = func() {
		pings = append(pings, s1.Now())
		toRoot.send(s1.Now()+back, func() { pongs = append(pongs, root.Now()) })
	}
	for i := 1; i <= 50; i++ {
		at := time.Duration(i) * 100 * time.Microsecond
		fire := at // capture
		root.At(at, func() { toS1.send(fire+there, pongBack) })
	}
	root.Run()

	if len(pings) != 50 || len(pongs) != 50 {
		t.Fatalf("got %d pings, %d pongs, want 50 each", len(pings), len(pongs))
	}
	for i := 0; i < 50; i++ {
		at := time.Duration(i+1) * 100 * time.Microsecond
		if pings[i] != at+there {
			t.Fatalf("ping %d at %v, want %v", i, pings[i], at+there)
		}
		if pongs[i] != at+there+back {
			t.Fatalf("pong %d at %v, want %v", i, pongs[i], at+there+back)
		}
	}
}

func TestShardSameTimestampMergeIsRegistrationOrder(t *testing.T) {
	// Two producer shards inject events at the *same* timestamp into the
	// same destination. The merge order must follow exchange registration
	// order, run after run, regardless of goroutine scheduling.
	const flight = time.Microsecond
	trial := func() []int {
		root := New(1)
		a := root.NewShard(2)
		b := root.NewShard(3)
		g := root.Group()
		fromA := newRingMailbox(g, a, root)
		fromB := newRingMailbox(g, b, root)
		g.ObserveLookaheadBetween(a, root, flight)
		g.ObserveLookaheadBetween(b, root, flight)

		var order []int
		for i := 0; i < 20; i++ {
			at := time.Duration(i) * 10 * time.Microsecond
			a.At(at, func() { fromA.send(a.Now()+flight, func() { order = append(order, 0) }) })
			b.At(at, func() { fromB.send(b.Now()+flight, func() { order = append(order, 1) }) })
		}
		root.Run()
		return order
	}
	first := trial()
	if len(first) != 40 {
		t.Fatalf("got %d events, want 40", len(first))
	}
	for i := 0; i < 40; i += 2 {
		// fromA registered before fromB: at every shared timestamp the A
		// event must execute first.
		if first[i] != 0 || first[i+1] != 1 {
			t.Fatalf("merge order at pair %d: %v", i/2, first[i:i+2])
		}
	}
	for run := 0; run < 10; run++ {
		got := trial()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("run %d diverged at %d", run, i)
			}
		}
	}
}

func TestShardRunUntilClockSemantics(t *testing.T) {
	root := New(1)
	s1 := root.NewShard(2)
	var n atomic.Int32
	root.After(time.Millisecond, func() { n.Add(1) })
	s1.After(2*time.Millisecond, func() { n.Add(1) })
	s1.After(8*time.Millisecond, func() { n.Add(1) })
	end := root.RunUntil(5 * time.Millisecond)
	if n.Load() != 2 {
		t.Fatalf("fired %d events before limit, want 2", n.Load())
	}
	// Events remain beyond the limit: the clock parks at the limit, exactly
	// as a serial engine's RunUntil would.
	if end != 5*time.Millisecond {
		t.Fatalf("RunUntil returned %v, want 5ms", end)
	}
	end = root.Run()
	if n.Load() != 3 || end != 8*time.Millisecond {
		t.Fatalf("after Run: n=%d end=%v", n.Load(), end)
	}
}

func TestShardPanicAborts(t *testing.T) {
	// One-way traffic: s1 has an in-edge from the root but nothing flows
	// back, so the root free-runs while s1 paces behind it. The failure
	// must still unwind both and carry the original message.
	root := New(1)
	s1 := root.NewShard(2)
	g := root.Group()
	toS1 := newRingMailbox(g, root, s1)
	g.ObserveLookaheadBetween(root, s1, time.Microsecond)
	for i := 1; i <= 100; i++ {
		root.At(time.Duration(i)*time.Microsecond, func() { toS1.send(root.Now()+time.Microsecond, func() {}) })
		s1.At(time.Duration(i)*time.Microsecond, func() {})
	}
	s1.At(50*time.Microsecond, func() { panic("injected shard failure") })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("group run did not propagate the shard panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "injected shard failure") {
			t.Fatalf("propagated panic %v does not carry the original failure", r)
		}
	}()
	root.Run()
}

// TestShardProcFailureAborts: a process on a non-root shard that panics,
// or exits its goroutine (t.FailNow does this), aborts the whole group and
// reaches the root's caller named, instead of leaving the other shards
// waiting on a neighbor that will never publish; the tightly coupled root
// stops long before its own process would finish.
func TestShardProcFailureAborts(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func()
		want string
	}{
		{"panic", func() { panic("kaboom") }, `sim: shard aborted: sim: process "x" panicked: kaboom`},
		{"goexit", runtime.Goexit, "sim: shard aborted: runtime.Goexit"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			root := New(1)
			s1 := root.NewShard(2)
			g := root.Group()
			newRingMailbox(g, root, s1)
			newRingMailbox(g, s1, root)
			g.ObserveLookaheadBetween(root, s1, time.Microsecond)
			g.ObserveLookaheadBetween(s1, root, time.Microsecond)
			ticks := 0
			root.Spawn("ticker", func(p *Proc) {
				for ; ticks < 1000; ticks++ {
					p.Sleep(time.Microsecond)
				}
			})
			s1.Spawn("x", func(p *Proc) {
				p.Sleep(50 * time.Microsecond)
				tc.fail()
			})
			defer root.Shutdown()
			r := func() (r any) {
				defer func() { r = recover() }()
				root.Run()
				return nil
			}()
			if msg, _ := r.(string); !strings.HasPrefix(msg, tc.want) {
				t.Fatalf("group run ended with %v, want %q", r, tc.want)
			}
			if ticks >= 1000 {
				t.Fatalf("root shard ran its process to completion (%d ticks) despite the abort", ticks)
			}
		})
	}
}

func TestShardGroupShutdown(t *testing.T) {
	root := New(1)
	s1 := root.NewShard(2)
	var stopped atomic.Int32
	root.Spawn("r", func(p *Proc) {
		defer stopped.Add(1)
		p.Sleep(time.Hour)
	})
	s1.Spawn("s", func(p *Proc) {
		defer stopped.Add(1)
		p.Sleep(time.Hour)
	})
	root.RunUntil(time.Millisecond)
	root.Shutdown()
	if stopped.Load() != 2 {
		t.Fatalf("shutdown unwound %d procs, want 2", stopped.Load())
	}
}

func TestShardLookaheadValidation(t *testing.T) {
	root := New(1)
	s1 := root.NewShard(2)
	g := root.Group()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ObserveLookaheadBetween(0) did not panic")
			}
		}()
		g.ObserveLookaheadBetween(root, s1, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ObserveLookaheadBetween on the same shard did not panic")
			}
		}()
		g.ObserveLookaheadBetween(s1, s1, time.Microsecond)
	}()
	// Exchanges registered but no lookahead observed: the window protocol
	// has no safe width and must refuse to run.
	newRingMailbox(g, root, s1)
	defer func() {
		if recover() == nil {
			t.Error("run with exchanges but no lookahead did not panic")
		}
	}()
	root.Run()
}

func TestShardPairLookaheadValidation(t *testing.T) {
	// An exchange whose pair never observed a lookahead must refuse to run
	// even when other pairs did.
	root := New(1)
	s1 := root.NewShard(2)
	s2 := root.NewShard(3)
	g := root.Group()
	g.ObserveLookaheadBetween(root, s1, time.Microsecond)
	newRingMailbox(g, s2, root) // s2→root has no observed bound
	defer func() {
		if recover() == nil {
			t.Error("run with an unbounded pair exchange did not panic")
		}
	}()
	root.Run()
}

func TestShardPerPairWiderThanGlobalMin(t *testing.T) {
	// Shards r and s2 exchange pings over slow 100µs links, while a third
	// shard s1 has fast 1µs observations but no channel at all. A global
	// window would clamp every shard to the minimum (1µs) and grind ~100
	// rounds per ping; the window protocol must bound r and s2 only by the
	// 100µs edges that can actually reach them.
	const slow = 100 * time.Microsecond
	const fast = time.Microsecond
	root := New(1)
	s1 := root.NewShard(2)
	s2 := root.NewShard(3)
	g := root.Group()
	toS2 := newRingMailbox(g, root, s2)
	toRoot := newRingMailbox(g, s2, root)
	g.ObserveLookaheadBetween(root, s2, slow)
	g.ObserveLookaheadBetween(s2, root, slow)
	// The fast pair contributes only observations, no channel.
	g.ObserveLookaheadBetween(root, s1, fast)
	g.ObserveLookaheadBetween(s1, root, fast)
	if g.Lookahead() != fast {
		t.Fatalf("Lookahead() = %v, want the global min %v", g.Lookahead(), fast)
	}

	var pongs []time.Duration
	const pings = 10
	for i := 1; i <= pings; i++ {
		at := time.Duration(i) * 200 * time.Microsecond
		fire := at
		root.At(at, func() {
			toS2.send(fire+slow, func() {
				now := s2.Now()
				toRoot.send(now+slow, func() { pongs = append(pongs, root.Now()) })
			})
		})
	}
	root.Run()

	if len(pongs) != pings {
		t.Fatalf("got %d pongs, want %d", len(pongs), pings)
	}
	for i, at := range pongs {
		want := time.Duration(i+1)*200*time.Microsecond + 2*slow
		if at != want {
			t.Fatalf("pong %d at %v, want %v", i, at, want)
		}
	}

	prof := g.Profile()
	total := prof.Total()
	// 10 pings over 2ms of virtual time: a 1µs global window needs a round
	// per 1µs of progress (thousands). With per-pair horizons each ping leg
	// is a handful of rounds.
	perShard := total.Windows / uint64(len(prof.Shards))
	if perShard > 200 {
		t.Fatalf("ran %d rounds per shard; per-pair lookahead should need far fewer than the ~2000 a 1µs global window implies", perShard)
	}
	if total.Events == 0 || total.Drains == 0 {
		t.Fatalf("profile did not record work: %+v", total)
	}
}
