// Command unetbench regenerates every table and figure from the paper's
// evaluation (Tables 1-3, Figures 3-9) as text tables.
//
// Usage:
//
//	unetbench                      # run everything at quick scale
//	unetbench -experiment fig4     # one experiment
//	unetbench -experiment table3,fig8
//	unetbench -paper               # paper-scale Split-C problem sizes
//	unetbench -rounds 100          # more ping-pong rounds per point
//	unetbench -shards -1           # shard each simulation across all cores
//	unetbench -experiment figloss  # goodput/RTT-vs-loss sweep
//	unetbench -experiment chaos -loss 0.01 -faultseed 7
//	unetbench -experiment storm -shards 4 -simprof   # window profiler dump
//	                                   # with sync-wait share and per-edge
//	                                   # wait ranking
//	unetbench -experiment serve                      # open-loop serving sweep
//	unetbench -experiment serve -serveclients 64 -servelogical 16384 -servebursty
//	unetbench -experiment clos -topo clos2 -racks 8 -perrack 8 -spine 2 -count 4
//	                                   # all-to-all storm over a 64-host
//	                                   # 2-stage Clos (multi-hop VCI routes)
//	unetbench -experiment clos -topo clos3 -racks 4 -perrack 2 -spine 2 -count 4
//	unetbench -experiment gossip -islands 1024 -shards 8
//	                                   # 1k-island gossip overlay with flapping
//	                                   # uplinks and failure detection
//
// Experiments: table1 table2 table3 fig3 fig4 fig5 fig6 fig7 fig8 fig9
// figloss chaos ablations storm serve clos gossip
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"unet/internal/experiments"
)

func main() {
	var (
		expFlag  = flag.String("experiment", "all", "comma-separated experiment ids (table1..3, fig3..9, all)")
		paper    = flag.Bool("paper", false, "use the paper's full Split-C problem sizes (slower)")
		rounds   = flag.Int("rounds", 40, "ping-pong rounds per latency point")
		count    = flag.Int("count", 200, "messages per bandwidth point")
		parallel = flag.Int("parallel", 0, "sweep-point workers (0 = GOMAXPROCS, 1 = serial; output is identical either way)")
		shards   = flag.Int("shards", 0, "shard engines per simulation (0 = serial, <0 = GOMAXPROCS; output is identical either way)")
		hosts    = flag.Int("hosts", 8, "storm: cluster size")
		simprof  = flag.Bool("simprof", false, "storm: dump the per-shard window-protocol profile (wall-clock diagnostics)")

		topoKind = flag.String("topo", "clos2", "clos: topology shape (clos2, clos3, ring, island)")
		racks    = flag.Int("racks", 8, "clos: top-of-rack switches (pods×2 for clos3; islands for ring/island)")
		perRack  = flag.Int("perrack", 8, "clos: hosts per rack")
		spine    = flag.Int("spine", 2, "clos: spine (clos2) or core (clos3) switches")
		islands  = flag.Int("islands", 1024, "gossip: island switches (one host each)")

		serveClients  = flag.Int("serveclients", 0, "serve: load-generating hosts (0 = default 6)")
		serveServers  = flag.Int("serveservers", 0, "serve: serving hosts (0 = default 2)")
		serveLogical  = flag.Int("servelogical", 0, "serve: logical clients multiplexed per client host (0 = default 4096)")
		serveDuration = flag.Duration("serveduration", 0, "serve: arrival window of virtual time (0 = default 20ms)")
		serveLoads    = flag.String("serveloads", "20000,40000,60000,80000,100000,140000", "serve: comma-separated offered loads (req/s)")
		serveBursty   = flag.Bool("servebursty", false, "serve: batched (bursty) arrivals instead of Poisson")

		faultSeed = flag.Int64("faultseed", experiments.FaultSeed, "seed for the deterministic fault injectors (figloss, chaos)")
		loss      = flag.Float64("loss", -1, "chaos: override the i.i.d. cell-loss rate (per-cell probability)")
		burst     = flag.Float64("burst", -1, "chaos: override the Gilbert-Elliott good→bad rate (0 disables burst loss)")
		flap      = flag.Duration("flap", -1, "chaos: override the link flap period (down for period/10; 0 disables flaps)")
	)
	flag.Parse()
	experiments.MaxParallel = *parallel
	experiments.Shards = *shards

	sc := experiments.QuickScale()
	if *paper {
		sc = experiments.PaperScale()
	}

	run := map[string]func(){
		"table1":    func() { fmt.Println(experiments.Table1()) },
		"table2":    func() { fmt.Println(experiments.Table2(*rounds)) },
		"table3":    func() { fmt.Println(experiments.Table3(*rounds, *count)) },
		"fig3":      func() { fmt.Println(experiments.Fig3(*rounds)) },
		"fig4":      func() { fmt.Println(experiments.Fig4(*count)) },
		"fig5":      func() { fmt.Println(experiments.Fig5(sc)) },
		"fig6":      func() { fmt.Println(experiments.Fig6(*rounds / 2)) },
		"fig7":      func() { fmt.Println(experiments.Fig7(*count)) },
		"fig8":      func() { fmt.Println(experiments.Fig8(1 << 20)) },
		"fig9":      func() { fmt.Println(experiments.Fig9(*rounds / 2)) },
		"ablations": func() { fmt.Println(experiments.AblationTable(*rounds / 2)) },
		"figloss":   func() { fmt.Println(experiments.TableLoss(*faultSeed, *rounds/2, *count/4)) },
		"chaos": func() {
			cfg := experiments.DefaultChaos(*faultSeed)
			if *loss >= 0 {
				cfg.Plan.LossRate = *loss
			}
			if *burst >= 0 {
				cfg.Plan.BurstPGB = *burst
			}
			if *flap >= 0 {
				cfg.Plan.FlapPeriod = *flap
				cfg.Plan.FlapDown = *flap / 10
			}
			fmt.Println(experiments.Chaos(cfg))
		},
		"storm": func() {
			n := *shards
			if n < 0 {
				n = runtime.GOMAXPROCS(0)
			}
			t0 := time.Now()
			report, prof := experiments.Storm(*hosts, n, *count)
			wall := time.Since(t0)
			fmt.Print(report)
			if *simprof {
				if len(prof.Shards) == 0 {
					fmt.Println("simprof: serial run — no shard group; rerun with -shards ≥ 2")
					return
				}
				fmt.Printf("simprof (GOMAXPROCS=%d NumCPU=%d, wall %v):\n%s",
					runtime.GOMAXPROCS(0), runtime.NumCPU(), wall.Round(time.Microsecond), prof)
				// Sync-wait share: fraction of the shards' aggregate
				// wall-clock budget spent blocked on a neighbor rather than
				// simulating.
				total := prof.Total()
				share := 100 * float64(total.BarrierWait) / (float64(wall) * float64(len(prof.Shards)))
				fmt.Printf("sync-wait share: %.1f%% of %d shards × %v wall\n",
					share, len(prof.Shards), wall.Round(time.Microsecond))
			}
		},
		"clos": func() {
			n := *shards
			if n < 0 {
				n = runtime.GOMAXPROCS(0)
			}
			// The storm is all-to-all: scale the per-host count down from the
			// pair-experiment default so the quick run stays quick.
			msgs := *count
			if msgs > 8 {
				msgs = 8
			}
			t0 := time.Now()
			report, prof := experiments.TopoStorm(*topoKind, *racks, *perRack, *spine, n, msgs)
			wall := time.Since(t0)
			fmt.Print(report)
			if *simprof && len(prof.Shards) > 0 {
				fmt.Printf("simprof (wall %v):\n%s", wall.Round(time.Microsecond), prof)
			}
		},
		"gossip": func() {
			n := *shards
			if n < 0 {
				n = runtime.GOMAXPROCS(0)
			}
			cfg := experiments.DefaultGossip(*islands)
			cfg.Shards = n
			t0 := time.Now()
			res := experiments.Gossip(cfg)
			wall := time.Since(t0)
			fmt.Print(res.Render())
			fmt.Printf("  [diag] events=%d wall=%v events/sec=%.0f\n",
				res.Delivered, wall.Round(time.Microsecond), float64(res.Delivered)/wall.Seconds())
		},
		"serve": func() {
			loads := make([]float64, 0, 8)
			for _, s := range strings.Split(*serveLoads, ",") {
				var v float64
				if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &v); err != nil || v <= 0 {
					fmt.Fprintf(os.Stderr, "unetbench: bad -serveloads entry %q\n", s)
					os.Exit(2)
				}
				loads = append(loads, v)
			}
			n := *shards
			if n < 0 {
				n = runtime.GOMAXPROCS(0)
			}
			base := experiments.ServeConfig{
				ClientHosts:    *serveClients,
				Servers:        *serveServers,
				LogicalPerHost: *serveLogical,
				Duration:       *serveDuration,
				Bursty:         *serveBursty,
				Shards:         n,
			}
			report, results := experiments.ServeSweep(base, loads)
			fmt.Print(report)
			// Wall-clock diagnostics (not part of the deterministic report).
			for _, r := range results {
				fmt.Printf("  [diag] load=%.0f/s events=%d wall=%v events/sec=%.0f\n",
					r.Cfg.Rate, r.Steps, r.Wall.Round(time.Microsecond),
					float64(r.Steps)/r.Wall.Seconds())
			}
		},
	}
	order := []string{"table1", "table2", "table3", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "ablations", "figloss", "chaos", "storm", "serve", "clos", "gossip"}

	ids := order
	if *expFlag != "all" {
		ids = strings.Split(*expFlag, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(strings.ToLower(id))
		fn, ok := run[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unetbench: unknown experiment %q (have %s)\n", id, strings.Join(order, " "))
			os.Exit(2)
		}
		t0 := time.Now()
		fn()
		fmt.Printf("(%s regenerated in %v wall time)\n\n", id, time.Since(t0).Round(time.Millisecond))
	}
}
