package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"unet/internal/fabric"
	"unet/internal/testbed"
	"unet/internal/uam"
	"unet/internal/unet"
)

// instance is one assembled simulation, ready to run.
type instance struct {
	tb    *testbed.Testbed
	until time.Duration
	eps   []*unet.Endpoint
	uams  []*uam.UAM
	// finish reads the workload's results once RunUntil has returned at
	// virtual time end.
	finish func(end time.Duration) outcome
}

// outcome is what one run of the simulation produced.
type outcome struct {
	render    string  // the program's deterministic report, compared against the recorded one
	attempted int     // requests (serve) or messages sent (clos_storm, gossip)
	lost      int     // of those, how many the workload itself reports undelivered
	lat       []int64 // virtual-time latency samples, ns
	bytes     int64   // application payload bytes delivered
	coverage  float64 // delivered share (serve, clos_storm); hosts reached by host 0's rumor (gossip)
	end       time.Duration
}

// phases splits set-up time by layer call.
type phases struct {
	testbed, endpoint, connect, buffers time.Duration
	connectAlloc                        uint64
	channels                            int
}

// counters are the layers' public counters after one run.
type counters struct {
	events                             uint64
	nicOut, nicIn, nicPDUsIn, nicDrops uint64
	doorbells, coalesced               uint64
	linkSent, linkLost, linkDup        uint64
	qdrops, unknownVCI, undelivered    uint64
	epSent, epRecv, epDrops            uint64
	uamReq, uamAcks, uamRetx           uint64
	windows, shardEvents, stalls       uint64
	syncWait                           time.Duration
	shards                             int
	residual                           int64
}

// collect reads every counter the layers expose and closes the cell
// balance: every cell a NIC sent, plus every duplicate a link made, is
// received by a NIC, lost on a link, dropped by a switch queue, refused
// by a switch for an unknown VCI, or undeliverable at a host port.
func collect(inst *instance) counters {
	tb := inst.tb
	var c counters
	c.events = tb.TotalSteps()
	for _, d := range tb.Devices {
		s := d.Stats()
		c.nicOut += s.CellsOut
		c.nicIn += s.CellsIn
		c.nicPDUsIn += s.PDUsIn
		c.nicDrops += s.InFIFODrops + s.BadPDUs + s.UnknownVCIs + s.DirectDenied
		c.doorbells += s.Doorbells
		c.coalesced += s.DoorbellsCoalesced
	}
	var switches []*fabric.Switch
	if tb.Fabric != nil {
		switches = []*fabric.Switch{tb.Fabric.Switch}
		c.undelivered = tb.Fabric.UndeliveredCells()
	} else {
		switches = tb.Topo.Switches
		c.undelivered = tb.Topo.UndeliveredCells()
	}
	links := make([]*fabric.Link, 0, len(tb.Hosts))
	for i := range tb.Hosts {
		links = append(links, tb.Net.Uplink(i))
	}
	for _, sw := range switches {
		c.qdrops += sw.TotalQueueDrops()
		c.unknownVCI += sw.UnknownVCICells()
		for p := 0; p < sw.Ports(); p++ {
			links = append(links, sw.OutputLink(p))
		}
	}
	for _, l := range links {
		s := l.Stats()
		c.linkSent += s.CellsSent
		c.linkLost += s.CellsLost
		c.linkDup += s.CellsDuplicated
	}
	for _, ep := range inst.eps {
		s := ep.Stats()
		c.epSent += s.Sent
		c.epRecv += s.Received
		c.epDrops += s.DroppedNoBuffer + s.DroppedQueueFull + s.DroppedReassembly
	}
	for _, u := range inst.uams {
		s := u.Stats()
		c.uamReq += s.ReqSent
		c.uamAcks += s.AcksSent
		c.uamRetx += s.Retransmits
	}
	if g := tb.Eng.Group(); g != nil {
		t := g.Profile().Total()
		c.windows, c.shardEvents, c.stalls, c.syncWait = t.Windows, t.Events, t.Stalls, t.BarrierWait
		c.shards = g.Shards()
	}
	c.residual = int64(c.nicOut+c.linkDup) - int64(c.nicIn+c.linkLost+c.qdrops+c.unknownVCI+c.undelivered)
	return c
}

func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// options configure one measured run.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	short   bool
	out     string
	// expect reports whether render is the recorded result of variant v.
	expect func(v int, render string) bool
}

// iteration is one build-and-run of the simulation.
type iteration struct {
	variant               int
	traced                bool
	setup, run            time.Duration
	alloc, heap, runAlloc uint64
	gcCycles              uint32
	ph                    phases
	out                   outcome
	c                     counters
	ok                    bool
}

func iterate(w *workload, v int, opt options, tr *tracer, prof *cpuProfile) (iteration, error) {
	it := iteration{variant: v, traced: tr != nil}
	var m0, m1, m2 runtime.MemStats
	// Start from a fresh process's heap: with no free memory kept from the
	// previous iteration, set-up pays the page faults every real run pays,
	// and its time no longer depends on how much the scavenger returned.
	debug.FreeOSMemory()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	inst, err := w.build(v, opt.short, tr, &it.ph)
	if err != nil {
		return it, err
	}
	it.setup = time.Since(t0)
	defer inst.tb.Close()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	it.heap = m1.HeapAlloc
	if prof != nil {
		if err := prof.start(); err != nil {
			return it, err
		}
	}
	t1 := time.Now()
	end := inst.tb.Eng.RunUntil(inst.until)
	it.run = time.Since(t1)
	if prof != nil {
		if err := prof.stop(); err != nil {
			return it, err
		}
	}
	tr.lane(-1, "run").wallSpan(layerSim, opRunUntil, 0, t1)
	runtime.ReadMemStats(&m2)
	it.alloc = m2.TotalAlloc - m0.TotalAlloc
	it.runAlloc = m2.TotalAlloc - m1.TotalAlloc
	it.gcCycles = m2.NumGC - m1.NumGC
	it.out = inst.finish(end)
	it.c = collect(inst)
	it.ok = opt.expect(v, it.out.render)
	return it, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type result struct {
	report     report
	residual   int64 // largest cell-balance residual seen, by magnitude
	mismatches int   // iterations whose render differed from the recorded one
	spanFile   string
	cpuSamples int64     // profile samples behind the cpu.* shares
	runSeconds []float64 // every iteration's run_s, in order, for judging the spread within a run
}

// traceGroup is the cycle of a traced run: one untraced iteration, then
// traceGroup-1 traced ones of the same variant. Tracing overhead is thus
// measured on equal inputs, and most of the run feeds the CPU profile.
const traceGroup = 3

// measure builds and runs the workload repeatedly for opt.seconds (and at
// least once per input variant of the run), then reports medians.
func measure(w *workload, opt options) (result, error) {
	vars := w.runVariants(opt.seed)
	var prof *cpuProfile
	if opt.trace {
		prof = newCPUProfile()
	}
	vt := map[string][]int64{}
	var lastTrace *tracer
	var its []iteration
	start := time.Now()
	for i := 0; ; i++ {
		traced := opt.trace && i%traceGroup != 0
		k := i
		if opt.trace {
			k = i / traceGroup
		}
		v := vars[k%len(vars)]
		var tr *tracer
		var p *cpuProfile
		if traced {
			tr, p = &tracer{}, prof
		}
		it, err := iterate(w, v, opt, tr, p)
		if err != nil {
			return result{}, fmt.Errorf("%s variant %d: %w", w.name, v, err)
		}
		if k >= len(vars) {
			it.out.lat = nil // only the first pass over the variants feeds the sim_* metrics
		}
		its = append(its, it)
		if traced {
			tr.collectVT(vt)
			lastTrace = tr
		}
		groupDone := !opt.trace || i%traceGroup == traceGroup-1
		if groupDone && k+1 >= len(vars) && time.Since(start) >= opt.seconds {
			break
		}
	}

	var res result
	rep := report{Correct: true, Metrics: map[string]metric{}}
	for _, it := range its {
		res.runSeconds = append(res.runSeconds, math.Round(it.run.Seconds()*1e4)/1e4)
		failed := it.out.lost
		if !it.ok {
			failed = it.out.attempted
			rep.Correct = false
			res.mismatches++
		}
		if r := it.c.residual; r != 0 {
			failed += int(abs(r))
			rep.Correct = false
			if abs(r) > abs(res.residual) {
				res.residual = r
			}
		}
		rep.Attempted += it.out.attempted
		rep.Failed += min(failed, it.out.attempted)
	}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	if !opt.trace {
		endToEndMetrics(put, its)
		res.report = rep
		return res, nil
	}
	layerMetrics(put, its, prof, vt)
	put("cells.residual", float64(res.residual), "count")
	res.cpuSamples = prof.total
	if lastTrace != nil && opt.out != "" {
		path := filepath.Join(opt.out, fmt.Sprintf("%s-seed%d.spans.tsv.gz", w.name, opt.seed))
		if err := lastTrace.write(path); err != nil {
			return result{}, fmt.Errorf("write spans: %w", err)
		}
		res.spanFile = path
	}
	res.report = rep
	return res, nil
}

const mb = 1e6

// split separates untraced from traced iterations, each without its
// first iteration once enough remain (see steady).
func split(its []iteration) (plain, traced []iteration) {
	for _, it := range its {
		if it.traced {
			traced = append(traced, it)
		} else {
			plain = append(plain, it)
		}
	}
	return steady(plain), steady(traced)
}

// medianOf returns the median of f over a set of iterations.
func medianOf(set []iteration, f func(iteration) float64) float64 {
	xs := make([]float64, len(set))
	for i, it := range set {
		xs[i] = f(it)
	}
	return median(xs)
}

// endToEndMetrics reports what a user of the simulator sees: set-up and
// run time, memory, and the simulated results.
func endToEndMetrics(put func(string, float64, string), its []iteration) {
	plain, _ := split(its)
	put("setup_s", medianOf(plain, func(it iteration) float64 { return it.setup.Seconds() }), "s")
	put("run_s", medianOf(plain, func(it iteration) float64 { return it.run.Seconds() }), "s")
	put("alloc_mb", medianOf(plain, func(it iteration) float64 { return float64(it.alloc) / mb }), "MB")
	put("heap_mb", medianOf(plain, func(it iteration) float64 { return float64(it.heap) / mb }), "MB")
	// Simulated metrics pool one iteration of each of the run's variants.
	var lat []int64
	var bytes int64
	var end time.Duration
	var cov float64
	seen := map[int]bool{}
	for _, it := range its {
		if seen[it.variant] {
			continue
		}
		seen[it.variant] = true
		lat = append(lat, it.out.lat...)
		bytes += it.out.bytes
		end += it.out.end
		cov += it.out.coverage
	}
	put("sim_p50_us", quantile(lat, 0.50)/1e3, "us")
	put("sim_p999_us", quantile(lat, 0.999)/1e3, "us")
	put("sim_goodput_MBps", float64(bytes)/mb/end.Seconds(), "MB/s")
	put("sim_coverage", cov/float64(len(seen)), "fraction")
}

// layerMetrics reports the per-layer breakdown of a traced run.
// Wall-clock figures come from the untraced iterations; CPU shares and
// virtual-time spans from the traced ones; counters are deterministic per
// variant and averaged over all.
func layerMetrics(put func(string, float64, string), its []iteration, prof *cpuProfile, vt map[string][]int64) {
	plain, traced := split(its)
	mean := func(f func(counters) float64) float64 {
		s := 0.0
		for _, it := range its {
			s += f(it.c)
		}
		return s / float64(len(its))
	}
	sumTraced := func(f func(counters) float64) float64 {
		s := 0.0
		for _, it := range its {
			if it.traced {
				s += f(it.c)
			}
		}
		return s
	}
	for _, b := range cpuBuckets {
		put("cpu."+b, prof.share(b), "%")
	}
	put("sim.events", mean(func(c counters) float64 { return float64(c.events) }), "count")
	put("sim.ns_per_event", medianOf(plain, func(it iteration) float64 { return float64(it.run.Nanoseconds()) / float64(it.c.events) }), "ns")
	put("sim.windows", medianOf(plain, func(it iteration) float64 { return float64(it.c.windows) }), "count")
	put("sim.events_per_window", medianOf(plain, func(it iteration) float64 { return ratio(float64(it.c.shardEvents), float64(it.c.windows)) }), "count")
	put("sim.sync_wait_pct", medianOf(plain, func(it iteration) float64 {
		return 100 * ratio(float64(it.c.syncWait), float64(it.run)*float64(it.c.shards))
	}), "%")
	put("sim.stalls", medianOf(plain, func(it iteration) float64 { return float64(it.c.stalls) }), "count")

	put("setup.testbed_s", medianOf(plain, func(it iteration) float64 { return it.ph.testbed.Seconds() }), "s")
	put("setup.endpoint_s", medianOf(plain, func(it iteration) float64 { return it.ph.endpoint.Seconds() }), "s")
	put("setup.connect_s", medianOf(plain, func(it iteration) float64 { return it.ph.connect.Seconds() }), "s")
	put("setup.connect_us", medianOf(plain, func(it iteration) float64 { return 1e6 * ratio(it.ph.connect.Seconds(), float64(it.ph.channels)) }), "us")
	put("setup.connect_alloc_mb", medianOf(plain, func(it iteration) float64 { return float64(it.ph.connectAlloc) / mb }), "MB")
	put("setup.buffers_s", medianOf(plain, func(it iteration) float64 { return it.ph.buffers.Seconds() }), "s")

	put("fabric.cells", mean(func(c counters) float64 { return float64(c.linkSent) }), "count")
	put("fabric.qdrops", mean(func(c counters) float64 { return float64(c.qdrops) }), "count")
	put("fabric.lost", mean(func(c counters) float64 { return float64(c.linkLost) }), "count")
	put("fabric.ns_per_cell", ratio(prof.ns("fabric")+prof.ns("topo"), sumTraced(func(c counters) float64 { return float64(c.linkSent) })), "ns")

	put("nic.cells_in", mean(func(c counters) float64 { return float64(c.nicIn) }), "count")
	put("nic.pdus_in", mean(func(c counters) float64 { return float64(c.nicPDUsIn) }), "count")
	put("nic.drops", mean(func(c counters) float64 { return float64(c.nicDrops) }), "count")
	put("nic.doorbell_coalesced_pct", 100*ratio(mean(func(c counters) float64 { return float64(c.coalesced) }), mean(func(c counters) float64 { return float64(c.doorbells) })), "%")
	put("nic.ns_per_cell", ratio(prof.ns("nic")+prof.ns("atm"), sumTraced(func(c counters) float64 { return float64(c.nicIn + c.nicOut) })), "ns")

	put("unet.sent", mean(func(c counters) float64 { return float64(c.epSent) }), "count")
	put("unet.received", mean(func(c counters) float64 { return float64(c.epRecv) }), "count")
	put("unet.drops", mean(func(c counters) float64 { return float64(c.epDrops) }), "count")
	put("uam.acks_per_req", ratio(mean(func(c counters) float64 { return float64(c.uamAcks) }), mean(func(c counters) float64 { return float64(c.uamReq) })), "ratio")
	put("uam.retransmits", mean(func(c counters) float64 { return float64(c.uamRetx) }), "count")
	for _, name := range vtMetrics {
		put(name+".p50", quantile(vt[name], 0.50)/1e3, "us")
		put(name+".p999", quantile(vt[name], 0.999)/1e3, "us")
	}

	put("run.alloc_mb", medianOf(plain, func(it iteration) float64 { return float64(it.runAlloc) / mb }), "MB")
	put("run.gc_cycles", medianOf(plain, func(it iteration) float64 { return float64(it.gcCycles) }), "count")
	put("trace.overhead_pct", 100*(medianOf(traced, func(it iteration) float64 { return it.run.Seconds() })/
		medianOf(plain, func(it iteration) float64 { return it.run.Seconds() })-1), "%")
}

// vtMetrics are the virtual-time span metrics; each reports .p50 and .p999.
var vtMetrics = []string{"vt.send_block_us", "vt.req_wait_us", "vt.rtt_us"}

// collectVT appends one traced iteration's virtual-time samples (ns):
// how long SendBlock kept its caller parked; for serve, from a request's
// scheduled arrival to its Request call's return, and from that return to
// the reply handler's dispatch.
func (t *tracer) collectVT(into map[string][]int64) {
	into["vt.send_block_us"] = append(into["vt.send_block_us"], t.vtDurations(opSendBlock)...)
	for _, l := range t.lanes {
		arrival := map[uint64]int64{}
		returned := map[uint64]int64{}
		for _, s := range l.spans {
			switch s.op {
			case opArrival:
				arrival[s.obj] = s.vt0
			case opRequest:
				returned[s.obj] = s.vt1
				if a, ok := arrival[s.obj]; ok {
					into["vt.req_wait_us"] = append(into["vt.req_wait_us"], s.vt1-a)
				}
			case opReplyDispatch:
				if r, ok := returned[s.obj]; ok {
					into["vt.rtt_us"] = append(into["vt.rtt_us"], s.vt0-r)
				}
			}
		}
	}
}

// steady drops the first iteration, which pays for cold caches and heap
// growth, when enough remain to take a median.
func steady(its []iteration) []iteration {
	if len(its) >= 3 {
		return its[1:]
	}
	return its
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(0, min(k, len(s)-1))])
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func abs(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
