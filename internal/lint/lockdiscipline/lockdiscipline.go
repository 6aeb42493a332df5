// Package lockdiscipline checks the lock protocol SCR's concurrent serving
// depends on (docs/PERF.md): no blocking engine call (Optimize / Recost /
// PrepareRecost / Process) while a write lock is held, no RLock→Lock
// upgrades (self-deadlock under Go's writer-preferring RWMutex), no path
// that returns with a lock still held, manual Unlock in multi-return
// functions (where a missed path is one refactor away) is flagged in favor
// of defer, and — since the read path went lock-free — no RLock (or rlock
// wrapper) acquisition anywhere in the Process/getPlan/minCostPlan hot-path
// call graph: the serving path reads the published RCU snapshot and must
// never touch a lock's cache line. An audited exception carries
// `//lint:allow lockdiscipline <reason>`.
//
// The analysis runs on the ssalite IR: the lock-state dataflow is
// intraprocedural over each declared function's blocks, and the hot-path
// rule walks ssalite's same-package call graph (SSA.Reachable) from the
// hot roots. The repo's lock/rlock wrapper methods (which charge lock-wait
// counters) are treated as Lock/RLock on their receiver.
package lockdiscipline

import (
	"go/types"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/lintutil"
	"repro/internal/lint/ssalite"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockdiscipline",
	Doc: "check SCR's lock protocol: no blocking engine calls under the " +
		"write lock, no RLock→Lock upgrades, deferred Unlock in multi-return functions, " +
		"no read-lock acquisitions in the lock-free Process hot path",
	Requires: []*analysis.Analyzer{ssalite.Analyzer},
	Run:      run,
}

// blockingCalls are the engine/optimizer entry points that may block for an
// optimizer-call duration; holding the SCR write lock across one convoys
// every reader behind a plan search.
var blockingCalls = map[string]bool{
	"Optimize":       true,
	"Recost":         true,
	"PrepareRecost":  true,
	"RecostWith":     true,
	"RecostPlanWith": true,
	"Process":        true,
	// Coordinator RPCs block for a network round trip (with retries and
	// backoff); holding the coordinator's lock across one stalls probe and
	// status rollups for every other member.
	"rpcPushEpoch":     true,
	"rpcHealthz":       true,
	"rpcClusterStatus": true,
	"rpcAdminEpochs":   true,
	"rpcGetJSON":       true,
}

// wrapperNames are lock-acquisition/release wrapper methods that hold or
// release a lock across their own return on purpose.
var wrapperNames = map[string]bool{
	"lock": true, "rlock": true, "unlock": true, "runlock": true,
	"Lock": true, "RLock": true, "Unlock": true, "RUnlock": true,
}

// hotPathRoots are the serving-path entry points (every declared function
// of that name). Since the RCU refactor, everything reachable from them
// (same package) runs lock-free off the published snapshot; a read-lock
// acquisition anywhere in that call graph
// reintroduces the shared reader-count cache line and writer convoys the
// refactor removed. Revalidate's lag walk and the degraded-fallback
// ranking run concurrently with foreground traffic over the same
// snapshot, so they are held to the same rule: a read lock there would
// stall every Process call behind the background sweep.
var hotPathRoots = map[string]bool{
	"Process":         true,
	"getPlan":         true,
	"minCostPlan":     true,
	"Revalidate":      true,
	"revalidateEntry": true,
	"rankFallback":    true,
}

// lockState is the per-mutex abstract state, ordered by strength.
type lockState int

const (
	unlocked lockState = iota
	rLocked
	wLocked
)

// mutexOp classifies one lock-related call site.
type mutexOp struct {
	key     types.Object // root object owning the mutex (e.g. the SCR receiver)
	read    bool         // RLock / RUnlock
	acquire bool         // Lock/RLock vs Unlock/RUnlock
	call    *ssalite.Call
}

func run(pass *analysis.Pass) (any, error) {
	lintutil.ReportAllowMisuse(pass)
	ssa := pass.ResultOf[ssalite.Analyzer].(*ssalite.SSA)
	for _, fn := range ssa.Funcs {
		if fn.Decl != nil && len(fn.Blocks) > 0 {
			checkFunc(pass, fn)
		}
	}
	checkHotPath(pass, ssa)
	return nil, nil
}

// checkHotPath enforces the lock-free serving-path invariant: no RLock (or
// rlock wrapper) acquisition in any function reachable from a hotPathRoots
// entry point through calls that type-resolve to a function of this
// package — including the function literals a reachable function creates.
// Lock wrapper bodies are not walked: the acquisition is reported at their
// call site, where the hot-path context is visible.
func checkHotPath(pass *analysis.Pass, ssa *ssalite.SSA) {
	hot := ssa.Reachable(hotPathRoots, func(site ssalite.Instruction, _ *ssalite.Function) bool {
		c, isCall := site.(*ssalite.Call)
		return !isCall || c.Callee != nil && c.Callee.Pkg() == pass.Pkg && !wrapperNames[c.Callee.Name()]
	})
	for fn, root := range hot {
		in := ""
		if name := declName(fn); name != root.Name {
			in = " (in " + name + ")"
		}
		fn.Instrs(func(i ssalite.Instruction) {
			c, ok := i.(*ssalite.Call)
			if !ok {
				return
			}
			if op, isLock := classify(pass, c); isLock && op.acquire && op.read {
				lintutil.Report(pass, c.Pos(),
					"read lock acquired on the %s hot path%s: the serving path is lock-free by design — read the published snapshot instead, or annotate an audited exception with //lint:allow",
					root.Name, in)
			}
		})
	}
}

// declName is the name of the declaration enclosing fn (fn's own name for
// a declaration).
func declName(fn *ssalite.Function) string {
	for fn.Parent != nil {
		fn = fn.Parent
	}
	return fn.Name
}

// classify returns the mutexOp for call, or ok=false if it is not a lock
// operation. Recognized: methods Lock/RLock/Unlock/RUnlock on sync.Mutex /
// sync.RWMutex values (usually fields), and this repo's wrapper methods
// lock()/rlock() (lock-wait-counting acquires) and unlock()/runlock()
// (releases — the write-domain unlock also flushes the pending snapshot
// publication) on a receiver owning such a mutex.
func classify(pass *analysis.Pass, call *ssalite.Call) (mutexOp, bool) {
	op := mutexOp{call: call}
	switch call.Method {
	case "Lock", "lock":
		op.acquire = true
	case "RLock", "rlock":
		op.acquire, op.read = true, true
	case "Unlock", "unlock":
	case "RUnlock", "runlock":
		op.read = true
	default:
		return mutexOp{}, false
	}
	if call.Recv == nil {
		return mutexOp{}, false
	}
	switch call.Method {
	case "Lock", "RLock", "Unlock", "RUnlock":
		if !isSyncMutex(call.Recv.Type()) {
			return mutexOp{}, false
		}
	default:
		// Wrapper methods must resolve to a method in this package.
		if call.Callee == nil || call.Callee.Pkg() != pass.Pkg {
			return mutexOp{}, false
		}
	}
	op.key = rootObj(call.Recv)
	if op.key == nil {
		return mutexOp{}, false
	}
	return op, true
}

func isSyncMutex(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// rootObj resolves the variable at the base of a selector chain: s.mu → s.
func rootObj(v ssalite.Value) types.Object {
	for {
		switch x := v.(type) {
		case *ssalite.Cell:
			return x.Obj
		case *ssalite.Global:
			return x.Obj
		case *ssalite.Load:
			v = x.Addr
		case *ssalite.FieldAddr:
			v = x.X
		case *ssalite.UnOp:
			v = x.X
		default:
			return nil
		}
	}
}

// checkFunc runs the dataflow over one declared function. Deferred calls
// do not change the lock state where they appear; a deferred unlock covers
// its key at every return.
func checkFunc(pass *analysis.Pass, fn *ssalite.Function) {
	deferredUnlocks := map[types.Object]bool{}
	var manualUnlocks []mutexOp
	returns := 0
	hasLockOps := false
	fn.Instrs(func(in ssalite.Instruction) {
		switch in := in.(type) {
		case *ssalite.Return:
			// cfg makes falling off the end an explicit return at the
			// closing brace; only written returns count here.
			if in.Pos() != fn.Decl.Body.Rbrace {
				returns++
			}
		case *ssalite.Call:
			op, ok := classify(pass, in)
			if !ok {
				return
			}
			hasLockOps = true
			switch {
			case in.IsDefer && !op.acquire:
				deferredUnlocks[op.key] = true
			case !in.IsDefer && !op.acquire:
				manualUnlocks = append(manualUnlocks, op)
			}
		}
	})
	if !hasLockOps {
		return
	}

	// Style rule: manual Unlock in a function with several return paths,
	// reported at the first one in source order.
	if returns >= 2 && len(manualUnlocks) > 0 {
		op := manualUnlocks[0]
		for _, o := range manualUnlocks[1:] {
			if o.call.Pos() < op.call.Pos() {
				op = o
			}
		}
		name := "Unlock"
		if op.read {
			name = "RUnlock"
		}
		lintutil.Report(pass, op.call.Pos(),
			"manual %s in %s, which has %d return statements; a new return path can leak the lock — use defer (extract a helper if the critical section must stay small)",
			name, fn.Name, returns)
	}

	// Dataflow: propagate per-key lock states over the blocks.
	type stateMap map[types.Object]lockState
	// merge: conflicting states degrade to the weaker claim (unlocked) so
	// joins never produce false "held" reports.
	merge := func(dst, src stateMap) bool {
		changed := false
		for k, v := range src {
			if cur, ok := dst[k]; !ok {
				dst[k] = v
				changed = true
			} else if cur != v && cur != unlocked {
				dst[k] = unlocked
				changed = true
			}
		}
		return changed
	}

	reported := map[ssalite.Instruction]bool{}
	report := func(in ssalite.Instruction, format string, args ...any) {
		if !reported[in] {
			reported[in] = true
			lintutil.Report(pass, in.Pos(), format, args...)
		}
	}
	apply := func(st stateMap, in ssalite.Instruction) {
		switch in := in.(type) {
		case *ssalite.Call:
			if op, ok := classify(pass, in); ok {
				switch {
				case in.IsDefer:
				case op.acquire && !op.read:
					if st[op.key] == rLocked {
						report(in, "RLock→Lock upgrade: Go's RWMutex self-deadlocks when a reader waits for its own writer")
					}
					st[op.key] = wLocked
				case op.acquire:
					st[op.key] = rLocked
				default:
					st[op.key] = unlocked
				}
				return
			}
			// Blocking engine calls while a write lock is held.
			if name := in.CalleeName(); blockingCalls[name] {
				for _, v := range st {
					if v == wLocked {
						report(in, "%s called while the write lock is held; optimizer-call latency convoys every waiting reader — move it outside the critical section", name)
						break
					}
				}
			}
		case *ssalite.Return:
			// Returning with a lock still held and no deferred unlock. Lock
			// wrapper methods (lock/rlock and friends) return holding the
			// lock by design; their callers are checked instead.
			if wrapperNames[fn.Name] {
				return
			}
			held := unlocked
			for k, v := range st {
				if v > held && !deferredUnlocks[k] {
					held = v
				}
			}
			if held != unlocked {
				report(in, "return with %s still held and no deferred unlock", lockName(held))
			}
		}
	}

	// Iterate to fixpoint; every block reachable from the entry is
	// processed at least once.
	in := make([]stateMap, len(fn.Blocks))
	for i := range in {
		in[i] = stateMap{}
	}
	visited := make([]bool, len(fn.Blocks))
	work := []*ssalite.Block{fn.Blocks[0]}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		visited[b.Index] = true
		st := stateMap{}
		merge(st, in[b.Index])
		for _, instr := range b.Instrs {
			apply(st, instr)
		}
		for _, succ := range b.Succs {
			if merge(in[succ.Index], st) || !visited[succ.Index] {
				work = append(work, succ)
			}
		}
	}
}

func lockName(v lockState) string {
	if v == rLocked {
		return "the read lock"
	}
	return "the write lock"
}
