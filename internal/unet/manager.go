package unet

import (
	"fmt"
	"math"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
)

// Manager is the operating-system service of §3.2 that "assists the
// application in determining the correct tag to use": it allocates VCI
// pairs, programs switch routes, performs the authorization checks, and
// registers the tags with each host's U-Net device. One Manager serves a
// fabric — the single-switch cluster or a topo-compiled multi-switch
// fabric, whose Route walks the path and installs a per-stage entry at
// every switch between the two hosts.
type Manager struct {
	cluster fabric.Network
	ports   map[*Host]int
	nextVCI atm.VCI
}

// firstUserVCI skips the VCIs reserved by ATM signalling conventions.
const firstUserVCI atm.VCI = 32

// NewManager creates the connection-management service for a fabric.
func NewManager(c fabric.Network) *Manager {
	return &Manager{cluster: c, ports: make(map[*Host]int), nextVCI: firstUserVCI}
}

// Register associates a host with its switch port. NIC attach helpers call
// this.
func (m *Manager) Register(h *Host, port int) { m.ports[h] = port }

// Port returns the switch port of a registered host.
func (m *Manager) Port(h *Host) (int, bool) {
	p, ok := m.ports[h]
	return p, ok
}

// Channel is the result of connecting two endpoints: the per-endpoint
// channel identifiers that name the full-duplex VCI pair.
type Channel struct {
	A, B  *Endpoint
	AtoB  atm.VCI
	BtoA  atm.VCI
	ChanA ChannelID
	ChanB ChannelID
}

// Connect establishes a full-duplex communication channel between two
// endpoints (§3.2, §4.2.2: "the tags used for the ATM network consist of a
// VCI pair"). It allocates the two one-way VCIs, programs the switch
// routes, and registers the tag pair with both devices. The cost of the
// two system calls is charged to p. Connect is all-or-nothing: on error no
// route, device registration or endpoint channel of the attempt remains.
func (m *Manager) Connect(p *sim.Proc, a, b *Endpoint) (*Channel, error) {
	if a.closed || b.closed {
		return nil, ErrClosed
	}
	portA, okA := m.ports[a.host]
	portB, okB := m.ports[b.host]
	if !okA || !okB {
		return nil, fmt.Errorf("unet: host not registered with manager")
	}
	charge(p, a.host.Params.Syscall)
	charge(p, b.host.Params.Syscall)

	vAB, vBA, err := m.allocVCIPair()
	if err != nil {
		return nil, err
	}
	// Routes are provisioned per input port: vAB is only valid arriving
	// from A's port, vBA only from B's — no third host can inject cells
	// on this channel (§3.2).
	if err := m.cluster.Route(portA, vAB, portB); err != nil {
		return nil, err
	}
	if err := m.cluster.Route(portB, vBA, portA); err != nil {
		m.cluster.Unroute(portA, vAB)
		return nil, err
	}
	chA := a.registerChannel(vAB, vBA)
	chB := b.registerChannel(vBA, vAB)
	err = a.host.dev.OpenChannel(a, chA, vAB, vBA)
	if err == nil {
		if err = b.host.dev.OpenChannel(b, chB, vBA, vAB); err != nil {
			a.host.dev.CloseChannel(a, chA)
		}
	}
	if err != nil {
		b.dropChannel(chB)
		a.dropChannel(chA)
		m.cluster.Unroute(portB, vBA)
		m.cluster.Unroute(portA, vAB)
		return nil, err
	}
	return &Channel{A: a, B: b, AtoB: vAB, BtoA: vBA, ChanA: chA, ChanB: chB}, nil
}

// Disconnect tears a channel down: deregisters the tags and removes the
// switch routes.
func (m *Manager) Disconnect(p *sim.Proc, ch *Channel) {
	charge(p, ch.A.host.Params.Syscall)
	charge(p, ch.B.host.Params.Syscall)
	ch.A.host.dev.CloseChannel(ch.A, ch.ChanA)
	ch.B.host.dev.CloseChannel(ch.B, ch.ChanB)
	ch.A.closeChannel(ch.ChanA)
	ch.B.closeChannel(ch.ChanB)
	portA, _ := m.ports[ch.A.host]
	portB, _ := m.ports[ch.B.host]
	m.cluster.Unroute(portA, ch.AtoB)
	m.cluster.Unroute(portB, ch.BtoA)
}

// allocVCIPair hands out the next two VCIs from the fabric-wide counter.
// It fails with ErrVCIExhausted rather than let the counter wrap into the
// reserved range and onto live channels; VCIs are not reused after
// Disconnect.
func (m *Manager) allocVCIPair() (atm.VCI, atm.VCI, error) {
	v := m.nextVCI
	if v < firstUserVCI || v == math.MaxUint16 {
		return 0, 0, ErrVCIExhausted
	}
	m.nextVCI += 2
	return v, v + 1, nil
}
