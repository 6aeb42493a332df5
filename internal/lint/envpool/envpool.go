// Package envpool checks the pooled-resource discipline of the recost hot
// path: every acquisition of a pooled selectivity environment (*memo.Env via
// PrepareEnv) or batched recosting context (*engine.PreparedInstance via
// PrepareRecost) must be paired with its release on every path to function
// exit, and the pooled value must not escape the acquiring function into
// struct fields, goroutines, channels, composite literals or return values —
// any of which permits use-after-release, the failure mode sync.Pool turns
// into silent data corruption (docs/PERF.md).
//
// The analyzer runs on the ssalite IR: an acquisition is the Store of a
// pooled value into its variable's cell, and the pairing check is
// ssalite.Leak from that store.
package envpool

import (
	"go/token"
	"go/types"
	"strconv"

	"golang.org/x/tools/go/analysis"

	"repro/internal/lint/lintutil"
	"repro/internal/lint/ssalite"
)

var Analyzer = &analysis.Analyzer{
	Name: "envpool",
	Doc: "check that pooled memo.Env / engine.PreparedInstance values are " +
		"released on every path and never escape the acquiring function",
	Requires: []*analysis.Analyzer{ssalite.Analyzer},
	Run:      run,
}

// pooledType reports whether t is one of the pooled hot-path types:
// *memo.Env or *engine.PreparedInstance (package matched by final path
// segment so analysis fixtures can declare local stubs).
func pooledType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Name() {
	case "Env":
		return lintutil.PkgInScope(obj.Pkg().Path(), []string{"memo"})
	case "PreparedInstance":
		return lintutil.PkgInScope(obj.Pkg().Path(), []string{"engine"})
	}
	return false
}

// acquirers are the pool entry points (and the repo's unexported wrappers
// around them). Plain constructors such as NewEnv return unpooled values
// with ordinary GC lifetimes, so only these names start the pairing check.
var acquirers = map[string]bool{
	"PrepareEnv": true, "PrepareRecost": true,
	"prepareEnv": true, "prepareRecost": true,
}

// acquisition is one tracked `x[, err] := ...Prepare...(...)` site: the
// store of the pooled result into x.
type acquisition struct {
	store   *ssalite.Store
	cell    *ssalite.Cell // the pooled variable
	errCell *ssalite.Cell // the paired error variable, if any
}

func run(pass *analysis.Pass) (any, error) {
	lintutil.ReportAllowMisuse(pass)
	ssa := pass.ResultOf[ssalite.Analyzer].(*ssalite.SSA)
	for _, fn := range ssa.Funcs {
		acqs := findAcquisitions(fn)
		checked := map[*ssalite.Cell]bool{}
		for _, acq := range acqs {
			if !checked[acq.cell] {
				checked[acq.cell] = true
				checkEscapes(pass, ssa, fn, acq.cell)
				checkUseAfterRelease(pass, fn, acq.cell)
			}
			checkReleased(pass, ssa, fn, acq, acqs)
		}
	}
	return nil, nil
}

// findAcquisitions collects the stores of an acquirer's pooled result into
// a local variable of fn (nested literals are checked as functions of
// their own).
func findAcquisitions(fn *ssalite.Function) []acquisition {
	var out []acquisition
	fn.Instrs(func(in ssalite.Instruction) {
		st, ok := in.(*ssalite.Store)
		if !ok {
			return
		}
		cell, ok := st.Addr.(*ssalite.Cell)
		if !ok || cell.Obj == nil || !pooledType(cell.Type()) {
			return
		}
		call := acquirerCall(st.Val)
		if call == nil {
			return
		}
		acq := acquisition{store: st, cell: cell}
		// Remember the paired error variable of `x, err := ...` so the
		// release check can exempt the acquisition-failure branch.
		for _, other := range st.Block().Instrs {
			ost, ok := other.(*ssalite.Store)
			if !ok {
				continue
			}
			ex, ok := ost.Val.(*ssalite.Extract)
			ec, isCell := ost.Addr.(*ssalite.Cell)
			if ok && isCell && ex.Tuple == ssalite.Value(call) && isErrorType(ec.Type()) {
				acq.errCell = ec
			}
		}
		out = append(out, acq)
	})
	return out
}

// acquirerCall returns the acquirer call v is the (first) result of, or nil.
func acquirerCall(v ssalite.Value) *ssalite.Call {
	if ex, ok := v.(*ssalite.Extract); ok {
		v = ex.Tuple
	}
	if c, ok := v.(*ssalite.Call); ok && acquirers[c.CalleeName()] {
		return c
	}
	return nil
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	iface, ok := t.Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 1 && iface.Method(0).Name() == "Error"
}

// isLoadOf reports whether v reads the pooled variable itself.
func isLoadOf(v ssalite.Value, cell *ssalite.Cell) bool {
	l, ok := v.(*ssalite.Load)
	return ok && l.Addr == ssalite.Value(cell)
}

// refersTo reports whether v mentions cell anywhere in its operand tree.
func refersTo(v ssalite.Value, cell *ssalite.Cell) bool {
	if v == nil {
		return false
	}
	if v == ssalite.Value(cell) {
		return true
	}
	for _, op := range v.Operands() {
		if refersTo(op, cell) {
			return true
		}
	}
	return false
}

// uses reports whether instruction in mentions cell in any operand.
func uses(in ssalite.Instruction, cell *ssalite.Cell) bool {
	for _, op := range in.Operands() {
		if refersTo(op, cell) {
			return true
		}
	}
	return false
}

// isReleaseOf reports whether in releases the pooled variable:
// x.Release() or <any>.ReleaseEnv(x) / ReleaseEnv(x).
func isReleaseOf(in ssalite.Instruction, cell *ssalite.Cell) bool {
	c, ok := in.(*ssalite.Call)
	if !ok {
		return false
	}
	switch c.CalleeName() {
	case "Release":
		return isLoadOf(c.Recv, cell)
	case "ReleaseEnv":
		for _, a := range c.Args {
			if isLoadOf(a, cell) {
				return true
			}
		}
	}
	return false
}

// within reports whether fn is outer or a literal nested inside it.
func within(fn, outer *ssalite.Function) bool {
	for ; fn != nil; fn = fn.Parent {
		if fn == outer {
			return true
		}
	}
	return false
}

// anyInstr reports whether some instruction of outer, or of a literal
// nested in it, satisfies match.
func anyInstr(ssa *ssalite.SSA, outer *ssalite.Function, match func(ssalite.Instruction) bool) bool {
	found := false
	for _, f := range ssa.Funcs {
		if found || !within(f, outer) {
			continue
		}
		f.Instrs(func(in ssalite.Instruction) {
			found = found || match(in)
		})
	}
	return found
}

// checkReleased verifies that every path from the acquisition to function
// exit passes a release of the pooled value. A deferred release anywhere in
// the function — directly or inside a deferred closure — satisfies the
// check (the repo idiom defers immediately after acquiring); the error
// branch of the acquisition's own `if err != nil` check is exempt because
// a failed Prepare returns no pooled value, and a re-acquisition into the
// same variable ends a path (a loop that re-prepares each iteration is
// checked from each acquisition).
func checkReleased(pass *analysis.Pass, ssa *ssalite.SSA, fn *ssalite.Function, acq acquisition, all []acquisition) {
	cell := acq.cell
	if anyInstr(ssa, fn, func(in ssalite.Instruction) bool {
		c, ok := in.(*ssalite.Call)
		if !ok || !c.IsDefer {
			return false
		}
		if mc, ok := c.Fun.(*ssalite.MakeClosure); ok {
			return anyInstr(ssa, mc.Fn, func(in ssalite.Instruction) bool { return isReleaseOf(in, cell) })
		}
		return isReleaseOf(c, cell)
	}) {
		return
	}

	pred := func(in ssalite.Instruction) bool {
		if c, ok := in.(*ssalite.Call); ok && c.IsDefer {
			return false // non-matching defer; matching ones handled above
		}
		if isReleaseOf(in, cell) {
			return true
		}
		for _, other := range all {
			if in == ssalite.Instruction(other.store) && other.cell == cell {
				return true
			}
		}
		return in.Block() != acq.store.Block() && failureBranch(in.Block(), acq.errCell)
	}
	exit, leaks := ssalite.Leak(fn, acq.store, pred)
	if !leaks {
		return
	}
	// The exit's last instruction is its return (cfg makes falling off
	// the end an explicit return at the closing brace) or its call.
	detail := ""
	if exit != nil && len(exit.Instrs) > 0 {
		pos := exit.Instrs[len(exit.Instrs)-1].Pos()
		detail = " (path escaping near line " + strconv.Itoa(pass.Fset.Position(pos).Line) + ")"
	}
	lintutil.Report(pass, acq.store.Pos(), "pooled %s acquired here may not be released on every path%s; release it or defer the release", cell.Obj.Name(), detail)
}

// failureBranch reports whether b is the failure arm of a check of the
// acquisition's error variable: the then arm of `if err != nil` or the
// else arm of `if err == nil`. On that path Prepare returned no pooled
// value. (An error compares only against nil, so a constant operand is
// the nil.)
func failureBranch(b *ssalite.Block, errCell *ssalite.Cell) bool {
	bin, ok := b.Cond.(*ssalite.BinOp)
	if errCell == nil || !ok {
		return false
	}
	errSide := bin.X
	if _, isConst := bin.X.(*ssalite.Const); isConst {
		errSide = bin.Y
	} else if _, isConst := bin.Y.(*ssalite.Const); !isConst {
		return false
	}
	if !isLoadOf(errSide, errCell) {
		return false
	}
	return bin.Op == token.NEQ && b.CondTrue || bin.Op == token.EQL && !b.CondTrue
}

// checkEscapes flags stores of the pooled value into places that outlive the
// acquiring call: struct fields / slice or map elements, channel sends,
// composite literals, return values, and goroutine captures.
func checkEscapes(pass *analysis.Pass, ssa *ssalite.SSA, fn *ssalite.Function, cell *ssalite.Cell) {
	name := cell.Obj.Name()
	fn.Instrs(func(in ssalite.Instruction) {
		switch in := in.(type) {
		case *ssalite.Store:
			if !isLoadOf(in.Val, cell) {
				return
			}
			switch in.Addr.(type) {
			case *ssalite.FieldAddr:
				lintutil.Report(pass, in.Pos(), "pooled %s escapes into a struct field; it may be reused after release", name)
			case *ssalite.IndexAddr:
				lintutil.Report(pass, in.Pos(), "pooled %s escapes into a slice or map element; it may be reused after release", name)
			}
		case *ssalite.MapUpdate:
			if isLoadOf(in.Val, cell) {
				lintutil.Report(pass, in.Pos(), "pooled %s escapes into a slice or map element; it may be reused after release", name)
			}
		case *ssalite.Send:
			if isLoadOf(in.Val, cell) {
				lintutil.Report(pass, in.Pos(), "pooled %s escapes through a channel send", name)
			}
		case *ssalite.Return:
			for _, r := range in.Results {
				if isLoadOf(r, cell) {
					lintutil.Report(pass, in.Pos(), "pooled %s escapes via return; the caller cannot know it must release it", name)
				}
			}
		case *ssalite.AllocLit:
			for _, e := range in.Elts {
				if isLoadOf(e, cell) {
					lintutil.Report(pass, in.Pos(), "pooled %s escapes into a composite literal", name)
				}
			}
		case *ssalite.Call:
			if !in.IsGo {
				return
			}
			// A closure callee captures through its body; any other
			// callee, and every argument, captures through the operands.
			mc, isLit := in.Fun.(*ssalite.MakeClosure)
			captured := false
			for _, a := range in.Args {
				captured = captured || refersTo(a, cell)
			}
			if !isLit {
				captured = uses(in, cell)
			}
			if captured {
				lintutil.Report(pass, in.Pos(), "pooled %s captured by a goroutine; it may be released while the goroutine runs", name)
			}
			if isLit && anyInstr(ssa, mc.Fn, func(in ssalite.Instruction) bool { return uses(in, cell) }) {
				lintutil.Report(pass, in.Pos(), "pooled %s captured by a goroutine closure; it may be released while the goroutine runs", name)
			}
		}
	})
}

// checkUseAfterRelease flags the first instruction that reads the pooled
// value after a non-deferred release in the same basic block (the
// straight-line case; see docs/LINT.md for what this deliberately does not
// catch). Overwriting the variable is not a use.
func checkUseAfterRelease(pass *analysis.Pass, fn *ssalite.Function, cell *ssalite.Cell) {
	for _, b := range fn.Blocks {
		released := false
		for _, in := range b.Instrs {
			if st, ok := in.(*ssalite.Store); ok && st.Addr == ssalite.Value(cell) && !refersTo(st.Val, cell) {
				continue
			}
			if released && uses(in, cell) {
				lintutil.Report(pass, in.Pos(), "pooled %s used after release", cell.Obj.Name())
				break
			}
			if c, ok := in.(*ssalite.Call); ok && !c.IsDefer && isReleaseOf(c, cell) {
				released = true
			}
		}
	}
}
