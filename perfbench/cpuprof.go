package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// profileHz is the CPU sampling rate traced runs ask for; the default
// 100 Hz gives serve about 60 samples a run. The kernel delivers at most
// one profiling signal per scheduler tick and thread (about 250 Hz on the
// machine the benchmark was tuned on), so the CPU time behind a bucket is
// taken from getrusage, not from the sample count times the period.
const profileHz = 1000

// cpuBuckets lists the cpu.* metrics in report order. Every sample lands
// in exactly one of them, so their shares sum to 100 %.
var cpuBuckets = []string{
	"sim", "sched", "fabric", "topo", "nic", "atm", "unet", "uam", "testbed",
	"app", "mem", "gc", "other",
}

// layerModules are the repository modules that get a bucket of their own;
// samples whose innermost module frame is another internal package (stats,
// faults) go to "other".
var layerModules = map[string]bool{
	"sim": true, "fabric": true, "topo": true, "nic": true, "atm": true,
	"unet": true, "uam": true, "testbed": true,
}

// Runtime frames that own a sample outright when they are the innermost
// classified frame. A scheduler or channel frame means the time went to a
// sim.Proc hand-off; an allocation or clear frame means allocator work.
var (
	schedPrefixes = []string{
		"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.send", "runtime.recv",
		"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.park_m", "runtime.mcall",
		"runtime.schedule", "runtime.findRunnable", "runtime.execute", "runtime.gogo",
		"runtime.gosched", "runtime.goschedImpl", "runtime.casgstatus", "runtime.runq",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep", "runtime.notewakeup",
		"runtime.futex", "runtime.lock", "runtime.unlock", "runtime.resetspinning",
		"runtime.checkTimers", "runtime.netpoll", "runtime.usleep", "runtime.osyield", "runtime.procyield",
		"runtime.acquirep", "runtime.releasep", "runtime.handoffp", "runtime.semacquire", "runtime.semrelease",
	}
	memPrefixes = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.makemap", "runtime.newarray", "runtime.memclrNoHeapPointers", "runtime.memclrHasPointers",
		"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*mspan)",
		"runtime.nextFreeFast", "runtime.heapSetType", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.concatstring", "runtime.slicebytetostring", "runtime.convT",
	}
	gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart"}
)

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// classify folds one sampled stack, innermost frame first, into a bucket.
func classify(stack []string) string {
	for _, f := range stack {
		if hasAnyPrefix(f, gcFrames) {
			return "gc"
		}
	}
	for _, f := range stack {
		switch {
		case hasAnyPrefix(f, schedPrefixes):
			return "sched"
		case hasAnyPrefix(f, memPrefixes):
			return "mem"
		case strings.HasPrefix(f, "unet/internal/"):
			mod := strings.TrimPrefix(f, "unet/internal/")
			if k := strings.IndexAny(mod, "./"); k >= 0 {
				mod = mod[:k]
			}
			if layerModules[mod] {
				return mod
			}
			return "other"
		case strings.HasPrefix(f, "main."), strings.HasPrefix(f, "unet/perfbench."):
			return "app"
		}
	}
	return "other"
}

// cpuProfile accumulates folded samples, and the process CPU time they
// were taken over, across the traced iterations.
type cpuProfile struct {
	samples map[string]int64
	total   int64
	cpu     time.Duration
	cpu0    time.Duration
	buf     bytes.Buffer
}

func newCPUProfile() *cpuProfile { return &cpuProfile{samples: map[string]int64{}} }

// start begins sampling at profileHz. Setting the rate first makes
// runtime/pprof's own 100 Hz request a no-op (it prints a warning to
// standard error saying so).
func (c *cpuProfile) start() error {
	c.buf.Reset()
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&c.buf); err != nil {
		return err
	}
	c.cpu0 = processCPU()
	return nil
}

// stop ends sampling and folds the profile into the buckets.
func (c *cpuProfile) stop() error {
	c.cpu += processCPU() - c.cpu0
	pprof.StopCPUProfile()
	stacks, err := parseProfile(c.buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range stacks {
		c.samples[classify(s.frames)] += s.count
		c.total += s.count
	}
	return nil
}

// share returns bucket b's percentage of all samples.
func (c *cpuProfile) share(b string) float64 {
	if c.total == 0 {
		return 0
	}
	return 100 * float64(c.samples[b]) / float64(c.total)
}

// ns returns bucket b's share of the profiled CPU time, in nanoseconds.
func (c *cpuProfile) ns(b string) float64 { return c.share(b) / 100 * float64(c.cpu) }

// processCPU returns the user and system CPU time of every thread of the
// process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stackSample is one profile sample: its frames, innermost first, with
// inlined functions expanded, and its sample count.
type stackSample struct {
	frames []string
	count  int64
}

// parseProfile decodes the gzip-compressed profile.proto that
// runtime/pprof writes, keeping only what folding needs: each sample's
// count and the function names along its stack.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = eachField(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if k := funcNames[fn]; k >= 0 && int(k) < len(strs) {
					frames = append(frames, strs[k])
				}
			}
		}
		out = append(out, stackSample{frames: frames, count: s.values[0]})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and value: v for varints, b for length-delimited
// payloads. Fixed-width fields are skipped.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, which the
// encoder writes either one per field (wire type 0) or packed (type 2).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
