package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"unet/internal/experiments"
	"unet/internal/faults"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/topo"
	"unet/internal/unet"
)

// gossipConfig is experiments.DefaultGossip(1024), run serially, with the
// round period of input variant v: 300 µs + v µs.
func gossipConfig(v int, short bool) experiments.GossipConfig {
	n := 1024
	if short {
		n = 128
	}
	c := experiments.DefaultGossip(n)
	c.Period += time.Duration(v) * time.Microsecond
	return c
}

func gossipReference(v int, short bool) string {
	return experiments.Gossip(gossipConfig(v, short)).Render()
}

// gossipPeers is experiments.Gossip's overlay: host h's neighbors on a ring
// of n islands with antipodal chords, in (previous, next, chord) order.
func gossipPeers(h, n int) []int {
	if n <= 1 {
		return nil
	}
	if n == 2 {
		return []int{1 - h}
	}
	peers := []int{(h - 1 + n) % n, (h + 1) % n}
	if n >= 4 {
		half := n / 2
		if h < half && h+half < n {
			peers = append(peers, h+half)
		} else if h >= half && h-half < n-half {
			peers = append(peers, h-half)
		}
	}
	return peers
}

// buildGossip assembles experiments.Gossip through the layers' public
// calls with spans around every unet call. Its latency samples are rumor
// spread times: the virtual time, from the start of gossip, at which a
// host first learns another host's rumor.
func buildGossip(v int, short bool, tr *tracer, ph *phases) (*instance, error) {
	cfg := gossipConfig(v, short)
	setup := tr.lane(-1, "setup")

	t0 := time.Now()
	spec := topo.Island(cfg.Islands, cfg.PerIsland)
	for j := range spec.Switches {
		spec.Switches[j].QueueCells = cfg.QueueCells
	}
	setup.wallSpan(layerTopo, opTopology, 0, t0)
	t1 := time.Now()
	tb := testbed.New(testbed.Config{Topology: spec, Shards: cfg.Shards, Sync: cfg.Sync, Seed: cfg.Seed})
	setup.wallSpan(layerTestbed, opTestbedNew, 0, t1)
	n := tb.Topo.Size()
	if cfg.FlapEvery > 0 {
		for i := 0; i < n; i += cfg.FlapEvery {
			off := cfg.Period + time.Duration(i%5)*(cfg.Period/8)
			tb.Net.Uplink(i).SetInjector(faults.NewFlap(cfg.FlapPeriod, cfg.FlapDown, off))
		}
	}
	ph.testbed += time.Since(t0)

	eps := make([]*unet.Endpoint, n)
	epCfg := unet.EndpointConfig{SegmentSize: 8 << 10}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		t1 := time.Now()
		ep, err := tb.Hosts[i].Kernel.CreateEndpoint(nil, tb.Hosts[i].NewProcess("app"), epCfg)
		if err != nil {
			return nil, fmt.Errorf("gossip endpoint: %w", err)
		}
		setup.wallSpan(layerUnet, opCreateEndpoint, uint64(i), t1)
		eps[i] = ep
	}
	ph.endpoint += time.Since(t0)

	chans := make([]map[int]unet.ChannelID, n)
	for i := range chans {
		chans[i] = make(map[int]unet.ChannelID)
	}
	a0 := totalAlloc()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		for _, peer := range gossipPeers(i, n) {
			if peer < i {
				continue
			}
			t1 := time.Now()
			ch, err := tb.Manager.Connect(nil, eps[i], eps[peer])
			if err != nil {
				return nil, fmt.Errorf("gossip connect: %w", err)
			}
			setup.wallSpan(layerUnet, opConnect, uint64(i<<16|peer), t1)
			chans[i][peer] = ch.ChanA
			chans[peer][i] = ch.ChanB
			ph.channels++
		}
	}
	ph.connect += time.Since(t0)
	ph.connectAlloc += totalAlloc() - a0

	st := make([]experiments.GossipResult, n)
	learnAt := make([][]int64, n)
	for i := 0; i < n; i++ {
		i := i
		ep := eps[i]
		peers := gossipPeers(i, n)
		chanNbr := make(map[unet.ChannelID]int, len(peers))
		nbrChan := make([]unet.ChannelID, len(peers))
		for nb, peer := range peers {
			chanNbr[chans[i][peer]] = nb
			nbrChan[nb] = chans[i][peer]
		}
		ln := tr.lane(i, "gossip")
		tb.Hosts[i].Spawn("gossip", func(p *sim.Proc) {
			s := &st[i]
			known := make([]bool, n)
			known[i] = true
			fq := []uint16{}
			lastHeard := make([]int, len(peers))
			alive := make([]bool, len(peers))
			for nb := range alive {
				alive[nb] = true
			}
			seg := ep.Segment()
			seq := 0
			for r := 0; r < cfg.Rounds; r++ {
				if target := time.Duration(r) * cfg.Period; target > p.Now() {
					p.Sleep(target - p.Now())
				}
				for {
					ln.begin(p, layerUnet, opPollRecv, 0)
					rd, ok := ep.PollRecv(p)
					ln.end(p)
					if !ok {
						break
					}
					if len(rd.Inline) >= 2 {
						s.Delivered++
						origin := int(binary.BigEndian.Uint16(rd.Inline))
						if nb, ok := chanNbr[rd.Channel]; ok {
							lastHeard[nb] = r
						}
						if origin < n && !known[origin] {
							known[origin] = true
							s.Learned++
							learnAt[i] = append(learnAt[i], int64(p.Now()))
							fq = append(fq, uint16(origin))
							if len(fq) > cfg.ForwardQueue {
								fq = fq[1:]
								s.FQDrops++
							}
						}
					}
					ln.begin(p, layerTestbed, opRecycle, 0)
					testbed.Recycle(p, ep, rd)
					ln.end(p)
				}
				for nb := range peers {
					if alive[nb] && r-lastHeard[nb] > cfg.FailAfter {
						alive[nb] = false
						s.Removed++
					}
				}
				batch := []uint16{uint16(i)}
				for take := cfg.FanoutPerRound; take > 0 && len(fq) > 0; take-- {
					batch = append(batch, fq[0])
					fq = fq[1:]
				}
				for nb := range peers {
					if !alive[nb] {
						continue
					}
					for _, origin := range batch {
						off := (seq % 512) * 4
						binary.BigEndian.PutUint16(seg[off:], origin)
						seg[off+2] = byte(r)
						ln.begin(p, layerUnet, opSendBlock, uint64(i)<<32|uint64(seq))
						err := ep.SendBlock(p, unet.SendDesc{Channel: nbrChan[nb], Inline: seg[off : off+4]})
						ln.end(p)
						if err != nil {
							panic(err)
						}
						s.Sent++
						seq++
					}
				}
			}
			if known[0] {
				s.Coverage = 1
			}
		})
	}

	inst := &instance{tb: tb, until: time.Duration(cfg.Rounds)*cfg.Period + 10*time.Millisecond, eps: eps}
	inst.finish = func(end time.Duration) outcome {
		out := experiments.GossipResult{Hosts: n, Switches: len(spec.Switches), Rounds: cfg.Rounds, End: end, SwDrops: tb.Topo.TotalQueueDrops()}
		var o outcome
		for i := range st {
			out.Sent += st[i].Sent
			out.Delivered += st[i].Delivered
			out.Learned += st[i].Learned
			out.Removed += st[i].Removed
			out.FQDrops += st[i].FQDrops
			out.Coverage += st[i].Coverage
			o.lat = append(o.lat, learnAt[i]...)
		}
		o.render = out.Render()
		o.attempted = int(out.Sent)
		// Gossip loses messages by design (flapped uplinks, bounded
		// queues); the render pins how many, so none count as failed.
		o.bytes = int64(out.Delivered) * 4
		o.coverage = float64(out.Coverage) / float64(n)
		o.end = end
		return o
	}
	return inst, nil
}
