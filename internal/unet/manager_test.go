package unet_test

import (
	"testing"

	"unet/internal/atm"
	"unet/internal/testbed"
	"unet/internal/unet"
)

func newEndpoint(t *testing.T, tb *testbed.Testbed, host int) *unet.Endpoint {
	t.Helper()
	ep, err := tb.Hosts[host].Kernel.CreateEndpoint(nil, tb.Hosts[host].NewProcess("app"), unet.EndpointConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// nextVCI learns the manager's next free VCI with a probe channel between
// two fresh endpoints: the manager hands out consecutive VCIs, A→B first.
func nextVCI(t *testing.T, tb *testbed.Testbed, a, b int) atm.VCI {
	t.Helper()
	ch, err := tb.Manager.Connect(nil, newEndpoint(t, tb, a), newEndpoint(t, tb, b))
	if err != nil {
		t.Fatal(err)
	}
	tb.Manager.Disconnect(nil, ch)
	return ch.BtoA + 1
}

// checkNoChannel asserts that ep holds no open channel.
func checkNoChannel(t *testing.T, ep *unet.Endpoint, who string) {
	t.Helper()
	if _, _, ok := ep.ChannelVCIs(0); ok {
		t.Fatalf("%s kept a channel from the failed Connect", who)
	}
}

func TestConnectRollsBackOnRouteConflict(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 2})
	t.Cleanup(tb.Close)
	sw := tb.Fabric.Switch
	epA, epB := newEndpoint(t, tb, 0), newEndpoint(t, tb, 1)

	// The Connect below allocates v for A→B (entering at port 0) and v+1
	// for B→A (entering at port 1). Another channel already holds
	// (port 1, v+1), so the second leg must fail.
	v := nextVCI(t, tb, 0, 1)
	if err := sw.Route(1, v+1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Manager.Connect(nil, epA, epB); err == nil {
		t.Fatal("Connect replaced a live route entry instead of failing")
	}
	if port, ok := sw.Lookup(0, v); ok {
		t.Fatalf("A→B route entry survived the failed Connect (→ port %d)", port)
	}
	if port, ok := sw.Lookup(1, v+1); !ok || port != 0 {
		t.Fatalf("the conflicting entry was disturbed: port %d, present %v", port, ok)
	}
	checkNoChannel(t, epA, "endpoint A")
	checkNoChannel(t, epB, "endpoint B")

	ch, err := tb.Manager.Connect(nil, epA, epB)
	if err != nil {
		t.Fatalf("Connect after the rolled-back attempt: %v", err)
	}
	if port, ok := sw.Lookup(0, ch.AtoB); !ok || port != 1 {
		t.Fatalf("new channel's A→B entry: port %d, present %v", port, ok)
	}
	if port, ok := sw.Lookup(1, ch.BtoA); !ok || port != 0 {
		t.Fatalf("new channel's B→A entry: port %d, present %v", port, ok)
	}
}

func TestConnectRollsBackOnDeviceConflict(t *testing.T) {
	tb := testbed.New(testbed.Config{Hosts: 3})
	t.Cleanup(tb.Close)
	sw := tb.Fabric.Switch
	epB, epX, epC := newEndpoint(t, tb, 1), newEndpoint(t, tb, 2), newEndpoint(t, tb, 1)

	// Connect(B, X) allocates v for B→X (entering at port 1) and v+1 for
	// X→B (entering at port 2, delivered to B on host 1). Host 1's device
	// already delivers v+1 to C, so registering it for B fails after both
	// routes are installed.
	v := nextVCI(t, tb, 1, 2)
	if err := tb.Devices[1].OpenChannel(epC, 0, 0, v+1); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Manager.Connect(nil, epB, epX); err == nil {
		t.Fatal("Connect registered a VCI the device already delivers to another endpoint")
	}
	if _, ok := sw.Lookup(1, v); ok {
		t.Fatal("B→X route entry survived the failed Connect")
	}
	if _, ok := sw.Lookup(2, v+1); ok {
		t.Fatal("X→B route entry survived the failed Connect")
	}
	checkNoChannel(t, epB, "endpoint B")
	checkNoChannel(t, epX, "endpoint X")

	if _, err := tb.Manager.Connect(nil, epB, epX); err != nil {
		t.Fatalf("Connect after the rolled-back attempt: %v", err)
	}
}
