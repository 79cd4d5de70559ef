package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// RawGo flags concurrency primitives — go statements, channels, select,
// and the sync/sync.atomic packages — in simulation code outside the
// shard runtime. The shard runtime (sim.Group, in the internal/sim files
// listed in shardRuntimeFiles) is the only place OS-level concurrency may
// touch a simulation: it alone guarantees, via the conservative
// time-window protocol, that parallel execution merges into the exact
// event order a serial run would produce. A goroutine or channel anywhere
// else in the models introduces OS-scheduler ordering into simulated
// behavior. The rest of internal/sim, whose processes are coroutines, is
// held to the same rule; only the sim package's own tests are exempt.
//
// The check is syntactic over whole files, so goroutines launched from
// deferred closures, function literals stored in struct fields, and
// package-level handler variables are all in scope — and the program index
// (see program.go) additionally registers every such literal as a call
// graph node, so the whole-program analyzers cannot lose them either.
// Calls that steer the OS scheduler directly (runtime.Gosched and friends)
// are banned alongside the primitives: yielding the OS thread from model
// code is the same ordering leak as a channel, just better disguised.
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc:  "flag raw goroutines, channels, select, sync primitives and scheduler calls outside the internal/sim shard runtime",
	Run:  runRawGo,
}

// shardRuntimeFiles are the internal/sim files that implement the shard
// runtime: the group run loop, the window protocol and its SPSC rings.
var shardRuntimeFiles = map[string]bool{"shard.go": true, "neighbor.go": true, "spsc.go": true}

// bannedRuntimeFuncs are runtime package calls that manipulate the OS
// scheduler from model code.
var bannedRuntimeFuncs = map[string]bool{
	"Gosched":        true,
	"Goexit":         true,
	"LockOSThread":   true,
	"UnlockOSThread": true,
	"GOMAXPROCS":     true,
	"NumGoroutine":   true,
}

func runRawGo(pass *Pass) {
	if !inSimScope(pass.Unit.PkgPath) {
		return
	}
	for _, f := range pass.Unit.Files {
		name := filepath.Base(pass.Unit.Fset.File(f.Pos()).Name())
		if simSegment(pass.Unit.PkgPath) == "sim" && (shardRuntimeFiles[name] || strings.HasSuffix(name, "_test.go")) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "raw go statement outside the sim shard runtime; run concurrent work as sim processes or behind sim.Group")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(), "channel send outside the sim shard runtime")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					pass.Reportf(n.Pos(), "channel receive outside the sim shard runtime")
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(), "select outside the sim shard runtime")
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "channel type outside the sim shard runtime; use sim.FIFO or sim.Cond for simulated synchronization")
			case *ast.RangeStmt:
				if tv, ok := pass.Unit.Info.Types[n.X]; ok {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						pass.Reportf(n.Pos(), "range over channel outside the sim shard runtime")
					}
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
					if _, isBuiltin := pass.Unit.Info.Uses[id].(*types.Builtin); isBuiltin {
						pass.Reportf(n.Pos(), "close of channel outside the sim shard runtime")
					}
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok {
					if pn, ok := pass.Unit.Info.Uses[id].(*types.PkgName); ok {
						switch pn.Imported().Path() {
						case "sync", "sync/atomic":
							pass.Reportf(n.Pos(), "%s.%s outside the sim shard runtime; simulated synchronization belongs to the engine", pn.Imported().Path(), n.Sel.Name)
						case "runtime":
							if bannedRuntimeFuncs[n.Sel.Name] {
								pass.Reportf(n.Pos(), "runtime.%s outside the sim shard runtime; model code must not steer the OS scheduler", n.Sel.Name)
							}
						}
					}
				}
			}
			return true
		})
	}
}
