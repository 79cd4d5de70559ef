package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"unet/internal/sim"
)

// Span layers and names. A span records one public call the benchmark makes
// into a layer; small enums keep a span at 40 bytes.
const (
	layerApp uint8 = iota
	layerTestbed
	layerTopo
	layerUnet
	layerUAM
	layerSim
)

var layerNames = [...]string{"app", "testbed", "topo", "unet", "uam", "sim"}

const (
	opArrival       uint8 = iota // serve: a request's scheduled arrival (zero length)
	opReplyDispatch              // serve: reply handler dispatched (zero length)
	opReqDispatch                // serve: request handler dispatched (zero length)
	opRequest
	opReply
	opPollWait
	opPollBlock
	opSendBlock
	opRecv
	opPollRecv
	opRecycle
	opTopology
	opTestbedNew
	opCreateEndpoint
	opUAMNew
	opConnect
	opUAMConnect
	opProvideBuffers
	opRunUntil
)

var opNames = [...]string{
	"arrival", "reply_dispatch", "request_dispatch",
	"Request", "Reply", "PollWait", "PollBlock",
	"SendBlock", "Recv", "PollRecv", "Recycle",
	"topo.Generate", "testbed.New", "CreateEndpoint", "uam.New",
	"Manager.Connect", "uam.Connect", "ProvideRecvBuffers", "RunUntil",
}

// span is one traced call. vt0/vt1 are the calling process's virtual
// clock at entry and exit (both -1 for set-up calls made outside the
// simulation). wall is the host time of the call, kept only when no
// simulation event ran during it — a call that parked its process has a
// wall time that belongs to whatever ran meanwhile, so it records -1.
type span struct {
	vt0, vt1 int64
	wall     int64
	obj      uint64 // request or message id (0 when the call has none)
	parent   int32  // index of the enclosing span in the same lane, or -1
	layer    uint8
	op       uint8
}

// lane is the span log of one simulated process (or of set-up). Each lane
// is written only by its own process, which runs on its host's engine, so
// sharded runs need no locking.
type lane struct {
	host  int
	name  string
	spans []span
	open  []openSpan // spans begun and not yet ended, innermost last
}

// openSpan remembers what end needs to decide whether the call parked.
type openSpan struct {
	idx   int32
	steps uint64 // the engine's executed-event count at entry
	w0    time.Time
}

// tracer owns every lane of one traced iteration. A nil *tracer (and the
// nil *lane it hands out) makes every recording call a no-op, so the
// untraced and traced runs execute the same workload code.
type tracer struct {
	lanes []*lane
}

func (t *tracer) lane(host int, name string) *lane {
	if t == nil {
		return nil
	}
	l := &lane{host: host, name: name}
	t.lanes = append(t.lanes, l)
	return l
}

// cur returns the index of the innermost open span, or -1.
func (l *lane) cur() int32 {
	if len(l.open) == 0 {
		return -1
	}
	return l.open[len(l.open)-1].idx
}

func (l *lane) begin(p *sim.Proc, layer, op uint8, obj uint64) {
	if l == nil {
		return
	}
	now := int64(p.Now())
	l.spans = append(l.spans, span{vt0: now, vt1: now, wall: -1, obj: obj, parent: l.cur(), layer: layer, op: op})
	l.open = append(l.open, openSpan{idx: int32(len(l.spans) - 1), steps: p.Engine().Steps(), w0: time.Now()})
}

// end closes the innermost open span.
func (l *lane) end(p *sim.Proc) {
	if l == nil {
		return
	}
	o := l.open[len(l.open)-1]
	l.open = l.open[:len(l.open)-1]
	s := &l.spans[o.idx]
	if p.Engine().Steps() == o.steps {
		s.wall = int64(time.Since(o.w0))
	}
	s.vt1 = int64(p.Now())
}

// mark records a zero-length event span at virtual time at, under the
// lane's current span.
func (l *lane) mark(layer, op uint8, obj uint64, at time.Duration) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{vt0: int64(at), vt1: int64(at), wall: -1, obj: obj, parent: l.cur(), layer: layer, op: op})
}

// wallSpan records a set-up call made outside the simulation.
func (l *lane) wallSpan(layer, op uint8, obj uint64, t0 time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, span{vt0: -1, vt1: -1, wall: int64(time.Since(t0)), obj: obj, parent: -1, layer: layer, op: op})
}

// vtDurations returns the virtual durations (vt1-vt0) of every span with
// the given op, in nanoseconds.
func (t *tracer) vtDurations(op uint8) []int64 {
	var out []int64
	for _, l := range t.lanes {
		for i := range l.spans {
			if s := &l.spans[i]; s.op == op {
				out = append(out, s.vt1-s.vt0)
			}
		}
	}
	return out
}

// write dumps every span as gzip-compressed tab-separated text, one span
// per line, to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "lane\tproc\thost\tspan\tparent\tlayer\tname\tobj\tvt0_ns\tvt1_ns\twall_ns")
	for li, l := range t.lanes {
		for i, s := range l.spans {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%d\t%d\n",
				li, l.name, l.host, i, s.parent, layerNames[s.layer], opNames[s.op], s.obj, s.vt0, s.vt1, s.wall)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
