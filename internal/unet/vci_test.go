package unet

import (
	"errors"
	"fmt"
	"testing"

	"unet/internal/atm"
	"unet/internal/fabric"
	"unet/internal/sim"
)

// nullDevice accepts every registration and moves nothing: enough for
// control-plane tests of the Manager.
type nullDevice struct{}

func (nullDevice) AttachEndpoint(*Endpoint) error                           { return nil }
func (nullDevice) DetachEndpoint(*Endpoint)                                 {}
func (nullDevice) OpenChannel(*Endpoint, ChannelID, atm.VCI, atm.VCI) error { return nil }
func (nullDevice) CloseChannel(*Endpoint, ChannelID)                        {}
func (nullDevice) KickTx(*Endpoint)                                         {}
func (nullDevice) SingleCellMax() int                                       { return 0 }
func (nullDevice) MTU() int                                                 { return 1 << 16 }
func (nullDevice) MaxEndpoints() int                                        { return 8 }

func TestConnectVCIExhaustion(t *testing.T) {
	e := sim.New(1)
	m := NewManager(fabric.NewCluster(e, "atm", 2, fabric.LinkParams{}, 0))
	var eps [2]*Endpoint
	for i := range eps {
		h := NewHost(e, fmt.Sprintf("host%d", i), DefaultNodeParams())
		h.SetDevice(nullDevice{})
		m.Register(h, i)
		ep, err := h.Kernel.CreateEndpoint(nil, h.NewProcess("app"), EndpointConfig{})
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}

	// Two pairs remain: 0xFFFC/0xFFFD and 0xFFFE/0xFFFF.
	m.nextVCI = 0xFFFC
	for i := 0; i < 2; i++ {
		ch, err := m.Connect(nil, eps[0], eps[1])
		if err != nil {
			t.Fatalf("Connect %d: %v", i, err)
		}
		if ch.AtoB < 0xFFFC || ch.BtoA < 0xFFFC {
			t.Fatalf("Connect %d got VCIs %d/%d", i, ch.AtoB, ch.BtoA)
		}
	}
	for i := 0; i < 2; i++ {
		ch, err := m.Connect(nil, eps[0], eps[1])
		if !errors.Is(err, ErrVCIExhausted) {
			var got [2]atm.VCI
			if ch != nil {
				got = [2]atm.VCI{ch.AtoB, ch.BtoA}
			}
			t.Fatalf("Connect past the VCI space: VCIs %v, err %v; want ErrVCIExhausted", got, err)
		}
	}
}
