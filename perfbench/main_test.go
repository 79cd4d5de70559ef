package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// runOnce builds and runs variant v of w once, untraced.
func runOnce(t *testing.T, w *workload, v int, short bool) iteration {
	t.Helper()
	it, err := iterate(w, v, options{short: short, expect: func(int, string) bool { return true }}, nil, nil)
	if err != nil {
		t.Fatalf("%s variant %d: %v", w.name, v, err)
	}
	return it
}

// TestWorkloadsMatchProgram pins each workload's render byte for byte to the
// experiment people run (experiments.Serve, ClosStorm, Gossip) at the
// benchmark's configuration, and to the recorded digest, so the benchmark
// measures the program and its correctness gate checks the right value.
func TestWorkloadsMatchProgram(t *testing.T) {
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			v := w.runVariants(heldOutSeed)[0]
			want := w.reference(v, false)
			got := runOnce(t, w, v, false)
			if got.out.render != want {
				t.Fatalf("benchmark render differs from the program's:\n--- benchmark\n%s\n--- program\n%s", got.out.render, want)
			}
			if !golden.matches(w.name, v, want) {
				t.Fatalf("program render of variant %d differs from golden.txt; re-record only if the change to the program's output is intended", v)
			}
			if got.c.residual != 0 {
				t.Fatalf("cell balance residual %d", got.c.residual)
			}
		})
	}
}

// TestSelfTest runs every workload at reduced size through the same code
// path as the benchmark, untraced and traced, and checks that every
// metric BENCHMARK.json names is emitted with a finite value, that the
// correctness gate and cell balance pass, and that the cpu.* shares sum
// to 100 %.
func TestSelfTest(t *testing.T) {
	spec := readSpec(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			refs := map[int]string{}
			opt := options{seed: 1, short: true, out: t.TempDir(), expect: func(v int, render string) bool {
				if _, ok := refs[v]; !ok {
					refs[v] = w.reference(v, true)
				}
				return render == refs[v]
			}}
			for _, trace := range []bool{false, true} {
				opt.trace = trace
				res, err := measure(w, opt)
				if err != nil {
					t.Fatal(err)
				}
				rep := res.report
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d residual=%d mismatches=%d",
						trace, rep.Correct, rep.Attempted, rep.Failed, res.residual, res.mismatches)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(rep.Metrics) != len(want) {
					t.Errorf("trace=%v: emitted %d metrics, BENCHMARK.json names %d", trace, len(rep.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := rep.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("trace=%v: metric %s not emitted", trace, m.Name)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("trace=%v: metric %s = %v", trace, m.Name, got.Value)
					case got.Unit != m.Unit:
						t.Errorf("trace=%v: metric %s unit %q, BENCHMARK.json says %q", trace, m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace {
					sum := 0.0
					for name, m := range rep.Metrics {
						if strings.HasPrefix(name, "cpu.") {
							sum += m.Value
						}
					}
					if math.Abs(sum-100) > 0.01 {
						t.Errorf("cpu.* shares sum to %.4f%%", sum)
					}
					if _, err := os.Stat(res.spanFile); err != nil {
						t.Errorf("span dump: %v", err)
					}
				}
			}
		})
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for i, sw := range s.Workloads {
		if sw.Name != workloads[i].name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, sw.Name, workloads[i].name)
		}
	}
	return s
}

// TestProfileFolding checks the stack classifier on representative
// stacks, innermost frame first.
func TestProfileFolding(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.chanrecv", "runtime.chanrecv1", "unet/internal/sim.(*Proc).park"}, "sched"},
		{[]string{"runtime.memmove", "unet/internal/nic.(*Device).processCell", "unet/internal/sim.(*Engine).runWindow"}, "nic"},
		{[]string{"runtime.mallocgc", "runtime.growslice", "unet/internal/unet.(*Manager).Connect"}, "mem"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"unet/internal/stats.(*Histogram).Record", "main.buildServe.func3"}, "other"},
		{[]string{"main.buildStorm.func2", "unet/internal/sim.(*Proc).top"}, "app"},
		{[]string{"runtime.nanotime"}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestRunVariants checks that a run's variants are a function of its
// seed alone and stay in range for any seed.
func TestRunVariants(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, seed := range []int64{-5, 0, 1, heldOutSeed, 1 << 40} {
			a, b := w.runVariants(seed), w.runVariants(seed)
			for j := range a {
				if a[j] != b[j] || a[j] < 0 || a[j] >= w.variants {
					t.Fatalf("%s seed %d: variants %v", w.name, seed, a)
				}
			}
		}
	}
}
