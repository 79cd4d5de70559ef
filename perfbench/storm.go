package main

import (
	"fmt"
	"strings"
	"time"

	"unet/internal/experiments"
	"unet/internal/sim"
	"unet/internal/testbed"
	"unet/internal/topo"
	"unet/internal/unet"
)

// The clos_storm shape: experiments.ClosStorm's 64-host 2-stage Clos
// (8 racks of 8 hosts, 2 spines), 1 KB messages, two shards under the
// default neighbor sync.
const (
	stormRacks   = 8
	stormPerRack = 8
	stormSpines  = 2
	stormShards  = 2
	stormSize    = 1024
	stormNbufs   = 64
)

// stormCount is the per-host message count of input variant v.
func stormCount(v int, short bool) int {
	if short {
		return 10 + v
	}
	return 200 + v
}

func stormReference(v int, short bool) string {
	s, _ := experiments.ClosStorm(stormRacks, stormPerRack, stormSpines, stormShards, stormCount(v, short))
	return s
}

// buildStorm assembles experiments.ClosStorm through the layers' public
// calls: topo.Clos2 and testbed.New, then testbed.NewMesh's endpoint,
// connect and buffer phases one at a time, then Mesh.Storm's sender and
// receiver loops with spans around every unet call. Each message's
// one-way virtual latency runs from its SendBlock return to its Recv
// return; channels are FIFO and the storm loses nothing, so the k-th
// message a receiver takes from a peer is the k-th that peer sent it.
func buildStorm(v int, short bool, tr *tracer, ph *phases) (*instance, error) {
	count := stormCount(v, short)
	setup := tr.lane(-1, "setup")

	t0 := time.Now()
	spec := topo.Clos2(stormRacks, stormPerRack, stormSpines)
	setup.wallSpan(layerTopo, opTopology, 0, t0)
	t1 := time.Now()
	tb := testbed.New(testbed.Config{Topology: spec, Shards: stormShards, Sync: sim.SyncNeighbor})
	setup.wallSpan(layerTestbed, opTestbedNew, 0, t1)
	ph.testbed += time.Since(t0)

	n := len(tb.Hosts)
	m := &testbed.Mesh{TB: tb, Eps: make([]*unet.Endpoint, n), Chans: make([][]unet.ChannelID, n), Stage: make([]int, n)}
	epCfg := unet.EndpointConfig{SegmentSize: 1 << 20}
	t0 = time.Now()
	for i := 0; i < n; i++ {
		t1 := time.Now()
		ep, err := tb.Hosts[i].Kernel.CreateEndpoint(nil, tb.Hosts[i].NewProcess("app"), epCfg)
		if err != nil {
			return nil, fmt.Errorf("host %d endpoint: %w", i, err)
		}
		setup.wallSpan(layerUnet, opCreateEndpoint, uint64(i), t1)
		m.Eps[i] = ep
		m.Chans[i] = make([]unet.ChannelID, n)
	}
	ph.endpoint += time.Since(t0)

	a0 := totalAlloc()
	t0 = time.Now()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			t1 := time.Now()
			ch, err := tb.Manager.Connect(nil, m.Eps[i], m.Eps[j])
			if err != nil {
				return nil, fmt.Errorf("connect %d-%d: %w", i, j, err)
			}
			setup.wallSpan(layerUnet, opConnect, uint64(i<<16|j), t1)
			m.Chans[i][j] = ch.ChanA
			m.Chans[j][i] = ch.ChanB
			ph.channels++
		}
	}
	ph.connect += time.Since(t0)
	ph.connectAlloc += totalAlloc() - a0

	t0 = time.Now()
	for i := 0; i < n; i++ {
		t1 := time.Now()
		if _, err := m.Eps[i].ProvideRecvBuffers(nil, 0, stormNbufs); err != nil {
			return nil, fmt.Errorf("host %d buffers: %w", i, err)
		}
		setup.wallSpan(layerUnet, opProvideBuffers, uint64(i), t1)
		m.Stage[i] = testbed.SendBase(m.Eps[i], stormNbufs)
	}
	ph.buffers += time.Since(t0)

	// Mesh.Storm's traffic pattern: host i's k-th message goes to peer
	// (i+1+k mod (n-1)) mod n. sent[i][j][k] is the virtual time host i's
	// k-th message to j left SendBlock. The slot is written before the
	// message exists, so the receiver's read is ordered after it even
	// across shards; the slices never grow during the run.
	res := make([]testbed.StormResult, n)
	expect := make([]int, n)
	sent := make([][][]int64, n)
	for i := 0; i < n; i++ {
		sent[i] = make([][]int64, n)
		for k := 0; k < count; k++ {
			j := (i + 1 + k%(n-1)) % n
			expect[j]++
			sent[i][j] = append(sent[i][j], 0)
		}
	}
	lat := make([][]int64, n)
	for i := 0; i < n; i++ {
		i := i
		ep := m.Eps[i]
		var peerOf []int // channel id → peer host
		for j, ch := range m.Chans[i] {
			if j != i {
				for int(ch) >= len(peerOf) {
					peerOf = append(peerOf, -1)
				}
				peerOf[ch] = j
			}
		}
		taken := make([]int, n)
		rl := tr.lane(i, "recv")
		tb.Hosts[i].Spawn("recv", func(p *sim.Proc) {
			for got := 0; got < expect[i]; got++ {
				rl.begin(p, layerUnet, opRecv, 0)
				rd := ep.Recv(p)
				rl.end(p)
				src := peerOf[rd.Channel]
				k := taken[src]
				taken[src]++
				lat[i] = append(lat[i], int64(p.Now())-sent[src][i][k])
				rl.begin(p, layerTestbed, opRecycle, msgID(src, i, k))
				testbed.Recycle(p, ep, rd)
				rl.end(p)
				res[i].Received++
				res[i].LastRecv = p.Now()
			}
		})
		sl := tr.lane(i, "send")
		nsent := make([]int, n)
		tb.Hosts[i].Spawn("send", func(p *sim.Proc) {
			for k := 0; k < count; k++ {
				peer := (i + 1 + k%(n-1)) % n
				// A 1 KB message is never inline: it is staged in the segment.
				d := unet.SendDesc{Channel: m.Chans[i][peer], Offset: m.Stage[i], Length: stormSize}
				sl.begin(p, layerUnet, opSendBlock, msgID(i, peer, nsent[peer]))
				err := ep.SendBlock(p, d)
				sl.end(p)
				if err != nil {
					panic(err)
				}
				sent[i][peer][nsent[peer]] = int64(p.Now())
				nsent[peer]++
				res[i].Sent++
			}
		})
	}

	inst := &instance{tb: tb, until: time.Duration(count*n)*time.Millisecond + time.Second, eps: m.Eps}
	inst.finish = func(end time.Duration) outcome {
		// The render is experiments.TopoStorm's, line for line.
		var b strings.Builder
		fmt.Fprintf(&b, "topo storm: topo=%s hosts=%d switches=%d stages=%d shards=%d msgs=%d×1KB end=%v\n",
			spec.Kind, tb.Topo.Size(), len(spec.Switches), spec.Stages(), stormShards, count, end)
		var o outcome
		received := 0
		for i, r := range res {
			fmt.Fprintf(&b, "  host%d sent=%d recv=%d last=%v\n", i, r.Sent, r.Received, r.LastRecv)
			o.attempted += r.Sent
			received += r.Received
			o.lat = append(o.lat, lat[i]...)
		}
		fmt.Fprintf(&b, "  trunks=%d qdrops=%d undelivered=%d\n",
			tb.Topo.TrunkCount(), tb.Topo.TotalQueueDrops(), tb.Topo.UndeliveredCells())
		o.render = b.String()
		o.lost = o.attempted - received
		o.bytes = int64(received) * stormSize
		o.coverage = float64(received) / float64(o.attempted)
		o.end = end
		return o
	}
	return inst, nil
}

// msgID is the span id of host src's k-th message to dst.
func msgID(src, dst, k int) uint64 { return uint64(src)<<40 | uint64(dst)<<24 | uint64(k) }
