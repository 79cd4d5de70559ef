package main

import (
	"fmt"
	"time"

	"unet/internal/experiments"
	"unet/internal/faults"
	"unet/internal/sim"
	"unet/internal/stats"
	"unet/internal/testbed"
	"unet/internal/uam"
)

// Handler indices; they match experiments.Serve's so the benchmark and the
// experiment exchange identical messages.
const (
	hServeReq = 11
	hServeRep = 12
)

// serveConfig is the benchmark's serve configuration for input variant v:
// experiments.Serve's defaults at 60 k req/s (below the knee) over 400 ms,
// with the arrival streams seeded by v.
func serveConfig(v int, short bool) experiments.ServeConfig {
	c := experiments.ServeConfig{
		ClientHosts: 6, Servers: 2, LogicalPerHost: 4096,
		Rate: 60_000, Duration: 400 * time.Millisecond, DrainCap: 50 * time.Millisecond,
		Payload: 16, Service: 2 * time.Microsecond,
		Seed: int64(v) + 1,
	}
	if short {
		c.Duration = 40 * time.Millisecond
	}
	return c
}

func serveReference(v int, short bool) string {
	return experiments.Serve(serveConfig(v, short)).Line()
}

// buildServe assembles experiments.Serve's open-loop RPC through the
// layers' public calls, timing each set-up phase, and returns it ready to
// run. The client and server loops are experiments.Serve's, with spans
// around every call into uam.
func buildServe(v int, short bool, tr *tracer, ph *phases) (*instance, error) {
	cfg := serveConfig(v, short)
	setup := tr.lane(-1, "setup")

	t0 := time.Now()
	tb := testbed.New(testbed.Config{Hosts: cfg.ClientHosts + cfg.Servers, Seed: cfg.Seed})
	setup.wallSpan(layerTestbed, opTestbedNew, 0, t0)
	ph.testbed += time.Since(t0)

	mkCfg := func(peers int) uam.Config { return uam.Config{BulkMax: 256, MaxPeers: peers} }
	t0 = time.Now()
	clients := make([]*uam.UAM, cfg.ClientHosts)
	servers := make([]*uam.UAM, cfg.Servers)
	for i := range clients {
		t1 := time.Now()
		u, err := uam.New(tb.Hosts[i].NewProcess("am"), i, mkCfg(cfg.Servers))
		if err != nil {
			return nil, fmt.Errorf("client uam: %w", err)
		}
		setup.wallSpan(layerUAM, opUAMNew, uint64(i), t1)
		clients[i] = u
	}
	for j := range servers {
		t1 := time.Now()
		node := cfg.ClientHosts + j
		u, err := uam.New(tb.Hosts[node].NewProcess("am"), node, mkCfg(cfg.ClientHosts))
		if err != nil {
			return nil, fmt.Errorf("server uam: %w", err)
		}
		setup.wallSpan(layerUAM, opUAMNew, uint64(node), t1)
		servers[j] = u
	}
	ph.endpoint += time.Since(t0)

	// uam.Connect opens the U-Net channel and provides the per-peer
	// receive buffers in one call, so serve's buffer time is inside
	// connect.
	a0 := totalAlloc()
	t0 = time.Now()
	for i := range clients {
		for j := range servers {
			t1 := time.Now()
			if err := uam.Connect(tb.Manager, clients[i], servers[j]); err != nil {
				return nil, fmt.Errorf("connect: %w", err)
			}
			setup.wallSpan(layerUAM, opUAMConnect, uint64(i<<16|j), t1)
			ph.channels++
		}
	}
	ph.connect += time.Since(t0)
	ph.connectAlloc += totalAlloc() - a0

	for j := range servers {
		srv := servers[j]
		host := cfg.ClientHosts + j
		ln := tr.lane(host, "srv")
		err := srv.RegisterHandler(hServeReq, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
			ln.mark(layerUAM, opReqDispatch, reqID(src, arg), p.Now())
			p.Sleep(cfg.Service)
			ln.begin(p, layerUAM, opReply, reqID(src, arg))
			err := u.Reply(p, hServeRep, arg, nil)
			ln.end(p)
			if err != nil {
				panic(err)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("server handler: %w", err)
		}
		tb.Hosts[host].Spawn("srv", func(p *sim.Proc) {
			for {
				ln.begin(p, layerUAM, opPollBlock, 0)
				srv.PollBlock(p)
				ln.end(p)
			}
		})
	}

	type hostState struct {
		sent, replied, dropped, active int
		end                            time.Duration
		hist                           stats.Histogram
		lat                            []int64
	}
	states := make([]hostState, cfg.ClientHosts)
	payload := make([]byte, cfg.Payload)
	perHost := cfg.Rate / float64(cfg.ClientHosts)
	for i := range clients {
		i := i
		cli := clients[i]
		st := &states[i]
		ln := tr.lane(i, "cli")
		pend := make(map[uint32]time.Duration)
		err := cli.RegisterHandler(hServeRep, func(u *uam.UAM, p *sim.Proc, src int, arg uint32, data []byte) {
			if t0, ok := pend[arg]; ok {
				delete(pend, arg)
				ln.mark(layerUAM, opReplyDispatch, reqID(i, arg), p.Now())
				d := int64(p.Now() - t0)
				st.hist.Record(d)
				st.lat = append(st.lat, d)
				st.replied++
			}
		})
		if err != nil {
			return nil, fmt.Errorf("client handler: %w", err)
		}
		tb.Hosts[i].Spawn("cli", func(p *sim.Proc) {
			rng := faults.NewRand(cfg.Seed, fmt.Sprintf("serve.cli%d", i))
			seen := make([]uint64, (cfg.LogicalPerHost+63)/64)
			var token uint32
			var next time.Duration
			for {
				next += time.Duration(rng.ExpFloat64() / perHost * float64(time.Second))
				if next > cfg.Duration {
					break
				}
				for p.Now() < next {
					ln.begin(p, layerUAM, opPollWait, 0)
					cli.PollWait(p, next-p.Now())
					ln.end(p)
				}
				lc := rng.Intn(cfg.LogicalPerHost)
				if seen[lc/64]&(1<<(lc%64)) == 0 {
					seen[lc/64] |= 1 << (lc % 64)
					st.active++
				}
				token++
				pend[token] = next
				st.sent++
				sv := (i + st.sent) % cfg.Servers
				ln.mark(layerApp, opArrival, reqID(i, token), next)
				ln.begin(p, layerUAM, opRequest, reqID(i, token))
				err := cli.Request(p, cfg.ClientHosts+sv, hServeReq, token, payload)
				ln.end(p)
				if err != nil {
					panic(err)
				}
			}
			limit := cfg.Duration + cfg.DrainCap
			for len(pend) > 0 && p.Now() < limit {
				ln.begin(p, layerUAM, opPollWait, 0)
				cli.PollWait(p, time.Millisecond)
				ln.end(p)
			}
			st.dropped = len(pend)
			st.end = p.Now()
		})
	}

	inst := &instance{tb: tb, until: cfg.Duration + cfg.DrainCap + time.Second}
	for _, u := range append(clients, servers...) {
		inst.uams = append(inst.uams, u)
		inst.eps = append(inst.eps, u.Endpoint())
	}
	inst.finish = func(end time.Duration) outcome {
		res := experiments.ServeResult{Cfg: cfg}
		var o outcome
		for i := range states {
			st := &states[i]
			res.Sent += st.sent
			res.Replied += st.replied
			res.Dropped += st.dropped
			res.Active += st.active
			if st.end > res.End {
				res.End = st.end
			}
			res.Latency.Merge(&st.hist)
			o.lat = append(o.lat, st.lat...)
		}
		o.render = res.Line()
		o.attempted = res.Sent
		o.lost = res.Dropped
		o.bytes = int64(res.Replied) * int64(cfg.Payload)
		o.coverage = float64(res.Replied) / float64(res.Sent)
		o.end = res.End
		return o
	}
	return inst, nil
}

// reqID is the span id of the request with this token from client host.
func reqID(host int, token uint32) uint64 { return uint64(host)<<32 | uint64(token) }
