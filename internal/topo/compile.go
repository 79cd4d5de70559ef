package topo

import (
	"fmt"
	"time"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
)

// Fabric is a compiled topology: the spec's switches instantiated as
// fabric.Switch instances, its trunks as serializing links between switch
// ports, and its hosts as uplink/downlink pairs on their attaching
// switch. Fabric implements fabric.Network, so the U-Net manager and the
// NIC attach path treat it exactly like the single-switch cluster; the
// only behavioral difference is that Route installs one table entry per
// switch along the computed path instead of a single entry.
type Fabric struct {
	Engine *sim.Engine
	Spec   *Spec
	// Switches holds the compiled switches in spec declaration order.
	Switches []*fabric.Switch

	swEng   []*sim.Engine
	hostEng []*sim.Engine
	uplinks []*fabric.Link

	hostSinks []fabric.CellSink
	hostSw    []int // host → attaching switch index
	hostPort  []int // host → its port on that switch

	// Per-switch port layout: ports [0, len(hostAt[s])) carry hosts (in
	// declared host order), the rest carry trunk endpoints (in declared
	// trunk order). peerSw/peerPort resolve a trunk port to the far side.
	hostAt   [][]int
	peerSw   [][]int
	peerPort [][]int

	// next[s][d] is the output port at switch s toward destination switch
	// d — the per-destination forwarding plan Route walks when it installs
	// a VCI's per-stage table entries. next[s][s] is -1 (the final hop is
	// the destination host's own port, not a trunk).
	next [][]int

	undeliv uint64
}

var _ fabric.Network = (*Fabric)(nil)

// hostPortSink indirects a switch output port to the host sink registered
// later with SetHostSink, mirroring the single-switch cluster's hostPort:
// trains pass through when the sink understands them, and otherwise fall
// back to per-cell deliveries scheduled on the host's own shard engine.
type hostPortSink struct {
	f *Fabric
	i int
}

func (h hostPortSink) DeliverCell(cell atm.Cell) {
	s := h.f.hostSinks[h.i]
	if s == nil {
		h.f.undeliv++
		return
	}
	s.DeliverCell(cell)
}

func (h hostPortSink) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	s := h.f.hostSinks[h.i]
	if s == nil {
		h.f.undeliv += uint64(len(cells))
		return
	}
	if ts, ok := s.(fabric.TrainSink); ok {
		ts.DeliverTrain(cells, first, spacing)
		return
	}
	for k := 1; k < len(cells); k++ {
		cell := cells[k]
		h.f.hostEng[h.i].At(first+time.Duration(k)*spacing, func() { h.DeliverCell(cell) })
	}
	h.DeliverCell(cells[0])
}

// trunkSink indirects a trunk link's receive side to the peer switch's
// input port. The indirection is what breaks the construction cycle: a
// switch's output links must exist before the switch is built, but a
// trunk's far-end switch may not exist yet — the sink resolves it at
// delivery time instead. Trains delegate to the switch port's own train
// path, so multi-hop delivery schedules are the ones direct wiring would
// have produced.
type trunkSink struct {
	f    *Fabric
	sw   int
	port int
}

func (t trunkSink) DeliverCell(c atm.Cell) {
	t.f.Switches[t.sw].PortSink(t.port).DeliverCell(c)
}

func (t trunkSink) DeliverTrain(cells []atm.Cell, first, spacing time.Duration) {
	t.f.Switches[t.sw].PortSink(t.port).(fabric.TrainSink).DeliverTrain(cells, first, spacing)
}

// Compile instantiates spec onto the fabric primitives. hostEng[i] is the
// shard engine host i's NIC and processes run on and swEng[j] the engine
// switch j forwards on (nil entries, or nil slices, mean the root
// engine). Any edge whose endpoints live on different engines becomes a
// cross-shard link, which registers the link latency as the pair's
// lookahead — the trunk propagation is what keeps inter-shard windows
// wide. Construction iterates hosts, switches and trunks strictly in
// declared order, so two compiles of the same spec wire identical event
// and exchange registration sequences.
func Compile(root *sim.Engine, spec *Spec, hostEng, swEng []*sim.Engine) (*Fabric, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	name := spec.Name
	if name == "" {
		name = "topo"
	}
	nh, ns := len(spec.Hosts), len(spec.Switches)
	if hostEng == nil {
		hostEng = make([]*sim.Engine, nh)
	}
	if swEng == nil {
		swEng = make([]*sim.Engine, ns)
	}
	if len(hostEng) != nh || len(swEng) != ns {
		return nil, fmt.Errorf("topo: %d host / %d switch engines for %d hosts / %d switches", len(hostEng), len(swEng), nh, ns)
	}
	f := &Fabric{
		Engine:    root,
		Spec:      spec,
		Switches:  make([]*fabric.Switch, ns),
		swEng:     make([]*sim.Engine, ns),
		hostEng:   make([]*sim.Engine, nh),
		uplinks:   make([]*fabric.Link, nh),
		hostSinks: make([]fabric.CellSink, nh),
		hostSw:    make([]int, nh),
		hostPort:  make([]int, nh),
		hostAt:    make([][]int, ns),
		peerSw:    make([][]int, ns),
		peerPort:  make([][]int, ns),
	}
	for j := 0; j < ns; j++ {
		f.swEng[j] = engineOr(swEng[j], root)
	}
	for i := 0; i < nh; i++ {
		f.hostEng[i] = engineOr(hostEng[i], root)
	}

	swIdx := make(map[string]int, ns)
	for j := range spec.Switches {
		swIdx[spec.Switches[j].Name] = j
	}

	// Port layout: hosts first (declared order), then trunk endpoints
	// (declared order). Recorded before any link exists so trunk sinks can
	// name their far-end port up front.
	for i := range spec.Hosts {
		sw := swIdx[spec.Hosts[i].Switch]
		f.hostSw[i] = sw
		f.hostPort[i] = len(f.hostAt[sw])
		f.hostAt[sw] = append(f.hostAt[sw], i)
	}
	type trunkEnd struct{ sw, port, peer, peerPort, trunk int }
	var ends [][2]trunkEnd
	for t := range spec.Trunks {
		a, b := swIdx[spec.Trunks[t].A], swIdx[spec.Trunks[t].B]
		pa := len(f.hostAt[a]) + len(f.peerSw[a])
		f.peerSw[a] = append(f.peerSw[a], b)
		pb := len(f.hostAt[b]) + len(f.peerSw[b])
		f.peerSw[b] = append(f.peerSw[b], a)
		f.peerPort[a] = append(f.peerPort[a], pb)
		f.peerPort[b] = append(f.peerPort[b], pa)
		ends = append(ends, [2]trunkEnd{
			{sw: a, port: pa, peer: b, peerPort: pb, trunk: t},
			{sw: b, port: pb, peer: a, peerPort: pa, trunk: t},
		})
	}

	// Build each switch over its pre-built output links: host ports
	// deliver through hostPortSink, trunk ports through trunkSink into the
	// far switch. A link whose endpoints live on different engines is a
	// cross-shard link.
	for j := 0; j < ns; j++ {
		swName := fmt.Sprintf("%s.%s", name, spec.Switches[j].Name)
		var out []*fabric.Link
		for p, host := range f.hostAt[j] {
			lname := fmt.Sprintf("%s.port%d", swName, p)
			out = append(out, newLinkBetween(f.swEng[j], f.hostEng[host], lname, spec.hostLink(host), hostPortSink{f: f, i: host}))
		}
		for k, peer := range f.peerSw[j] {
			p := len(f.hostAt[j]) + k
			lname := fmt.Sprintf("%s.port%d", swName, p)
			// Trunk timing comes from the declared trunk; find it via the
			// recorded endpoint list (k-th trunk endpoint of switch j).
			var lp fabric.LinkParams
			for _, pair := range ends {
				for _, e := range pair {
					if e.sw == j && e.port == p {
						lp = spec.trunkLink(e.trunk)
					}
				}
			}
			out = append(out, newLinkBetween(f.swEng[j], f.swEng[peer], lname, lp, trunkSink{f: f, sw: peer, port: f.peerPort[j][k]}))
		}
		f.Switches[j] = fabric.NewSwitchWithLinks(f.swEng[j], swName, spec.switchLatency(j), out)
		if q := spec.Switches[j].QueueCells; q > 0 {
			f.Switches[j].SetOutputQueueCells(q)
		}
	}

	// Host uplinks into the attaching switch's host port.
	for i := range spec.Hosts {
		sw := f.hostSw[i]
		uname := fmt.Sprintf("%s.up%d", name, i)
		f.uplinks[i] = newLinkBetween(f.hostEng[i], f.swEng[sw], uname, spec.hostLink(i), f.Switches[sw].PortSink(f.hostPort[i]))
	}

	f.buildForwarding()
	return f, nil
}

// MustCompile is Compile for generated specs that cannot fail validation.
func MustCompile(root *sim.Engine, spec *Spec, hostEng, swEng []*sim.Engine) *Fabric {
	f, err := Compile(root, spec, hostEng, swEng)
	if err != nil {
		panic(err)
	}
	return f
}

func engineOr(e, root *sim.Engine) *sim.Engine {
	if e == nil {
		return root
	}
	return e
}

// newLinkBetween builds a link from src to dst engine: a plain link when
// they coincide, a cross-shard link (registering its latency as the pair
// lookahead) when they differ.
func newLinkBetween(src, dst *sim.Engine, name string, lp fabric.LinkParams, sink fabric.CellSink) *fabric.Link {
	if src == dst {
		return fabric.NewLink(src, name, lp, sink)
	}
	return fabric.NewCrossLink(src, dst, name, lp, sink)
}

// buildForwarding computes next[s][d] — the output port at switch s
// toward destination switch d — by a BFS from each destination over the
// trunk graph. Neighbors are explored in declared trunk-endpoint order
// and the first parent found wins, so the plan is a pure function of the
// spec; generators exploit the tie-break by rotating their trunk
// declarations (Clos racks elect different spines per destination).
func (f *Fabric) buildForwarding() {
	ns := len(f.Switches)
	f.next = make([][]int, ns)
	for s := 0; s < ns; s++ {
		f.next[s] = make([]int, ns)
		for d := range f.next[s] {
			f.next[s][d] = -1
		}
	}
	for d := 0; d < ns; d++ {
		seen := make([]bool, ns)
		seen[d] = true
		frontier := []int{d}
		for len(frontier) > 0 {
			cur := frontier[0]
			frontier = frontier[1:]
			for k, peer := range f.peerSw[cur] {
				if seen[peer] {
					continue
				}
				seen[peer] = true
				// The trunk cur—peer, seen from peer's side, is peer's
				// port toward cur; cur is one hop closer to d, so that
				// port is peer's next hop.
				f.next[peer][d] = f.peerPort[cur][k]
				frontier = append(frontier, peer)
			}
		}
	}
}

// Path returns the switch indices a cell traverses from host `from` to
// host `to`, in order. Reporting and tests use it; Route walks the same
// plan.
func (f *Fabric) Path(from, to int) []int {
	path := []int{f.hostSw[from]}
	sw := f.hostSw[from]
	for sw != f.hostSw[to] {
		out := f.next[sw][f.hostSw[to]]
		if out < 0 {
			return nil
		}
		k := out - len(f.hostAt[sw])
		sw = f.peerSw[sw][k]
		path = append(path, sw)
	}
	return path
}

// Size returns the number of hosts.
func (f *Fabric) Size() int { return len(f.uplinks) }

// Stages returns the number of switch stages in the compiled spec.
func (f *Fabric) Stages() int { return f.Spec.Stages() }

// HostEngine returns the shard engine host's NIC and processes must run on.
func (f *Fabric) HostEngine(host int) *sim.Engine { return f.hostEng[host] }

// Uplink returns host's transmit link into its attaching switch.
func (f *Fabric) Uplink(host int) *fabric.Link { return f.uplinks[host] }

// Downlink returns the last-hop link toward host: its attaching switch's
// output port (for loss and fault injection).
func (f *Fabric) Downlink(host int) *fabric.Link {
	return f.Switches[f.hostSw[host]].OutputLink(f.hostPort[host])
}

// TrunkCount returns the number of declared trunks.
func (f *Fabric) TrunkCount() int { return len(f.Spec.Trunks) }

// TrunkLink returns the A→B direction link of declared trunk t (for fault
// injection on inter-switch paths). The B→A direction is the peer port's
// output link on B.
func (f *Fabric) TrunkLink(t int) *fabric.Link {
	// Trunk t's A-side port: count host ports plus earlier trunk endpoints
	// on A. Recover it from the peer tables: walk A's trunk ports in order
	// and take the t-th declared trunk's slot.
	swIdx := make(map[string]int, len(f.Spec.Switches))
	for j := range f.Spec.Switches {
		swIdx[f.Spec.Switches[j].Name] = j
	}
	a := swIdx[f.Spec.Trunks[t].A]
	k := 0
	for i := 0; i < t; i++ {
		if swIdx[f.Spec.Trunks[i].A] == a || swIdx[f.Spec.Trunks[i].B] == a {
			k++
		}
	}
	return f.Switches[a].OutputLink(len(f.hostAt[a]) + k)
}

// SetHostSink registers the receive sink (a NIC input FIFO) for host.
func (f *Fabric) SetHostSink(host int, s fabric.CellSink) { f.hostSinks[host] = s }

// Route installs vci, arriving from host `from`, to be delivered at host
// `to`: the multi-hop generalization of the cluster's single table entry.
// Each switch along the computed path gets one (input port, VCI) → output
// port entry, so the channel remains protected stage by stage — a cell
// can only follow the route if it entered at the provisioned port of the
// first switch, exactly §3.2's carefully-controlled route set-up
// stretched across stages. Route is all-or-nothing: when a stage fails,
// the stages already installed are removed again.
func (f *Fabric) Route(from int, vci atm.VCI, to int) (err error) {
	hops := 0
	defer func() {
		if err != nil {
			f.unroute(from, vci, hops)
		}
	}()
	sw, in := f.hostSw[from], f.hostPort[from]
	dst := f.hostSw[to]
	for sw != dst {
		out := f.next[sw][dst]
		if out < 0 {
			return fmt.Errorf("topo: no path from switch %d to %d for vci %d", sw, dst, vci)
		}
		if err := f.Switches[sw].Route(in, vci, out); err != nil {
			return err
		}
		hops++
		k := out - len(f.hostAt[sw])
		sw, in = f.peerSw[sw][k], f.peerPort[sw][k]
	}
	return f.Switches[dst].Route(in, vci, f.hostPort[to])
}

// Unroute removes a multi-hop route again (channel tear-down), walking
// the same path Route installed. The destination is recovered from the
// installed entries themselves: each stage's table names the next.
func (f *Fabric) Unroute(from int, vci atm.VCI) { f.unroute(from, vci, -1) }

// unroute removes the first n stage entries of from's vci route (all of
// them when n < 0). A half-installed route must pass its installed stage
// count: the entry at the stage after it belongs to another channel.
func (f *Fabric) unroute(from int, vci atm.VCI, n int) {
	sw, in := f.hostSw[from], f.hostPort[from]
	for ; n != 0; n-- {
		out, ok := f.Switches[sw].Lookup(in, vci)
		f.Switches[sw].Unroute(in, vci)
		if !ok || out < len(f.hostAt[sw]) {
			return
		}
		k := out - len(f.hostAt[sw])
		sw, in = f.peerSw[sw][k], f.peerPort[sw][k]
	}
}

// UndeliveredCells counts cells that reached a host port with no attached
// NIC.
func (f *Fabric) UndeliveredCells() uint64 { return f.undeliv }

// SetOutputQueueCells bounds every output-port queue of every switch to n
// cells (testbed fault plans apply their global bound through this;
// per-switch spec QueueCells already applied at compile time are
// overwritten).
func (f *Fabric) SetOutputQueueCells(n int) {
	for _, s := range f.Switches {
		s.SetOutputQueueCells(n)
	}
}

// TotalQueueDrops sums finite-queue tail drops over every switch.
func (f *Fabric) TotalQueueDrops() uint64 {
	var sum uint64
	for _, s := range f.Switches {
		sum += s.TotalQueueDrops()
	}
	return sum
}
