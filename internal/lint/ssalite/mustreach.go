package ssalite

// This file implements the must-reach (post-domination) queries the
// rcupublish and envpool analyzers are built on: "does every path from
// this instruction to a returning exit pass an instruction satisfying
// pred?", and, when not, "which exit does a violating path reach?".

// MustReach reports whether every live path from just after instruction
// `from` to a *returning* exit of fn passes an instruction satisfying pred.
//
// Two refinements make the query match how the repo writes code:
//   - A deferred call in the entry block that satisfies pred counts
//     unconditionally: it is armed before any instruction of interest and
//     runs at every exit (the `defer s.publishLocked()` idiom).
//   - Exits that cannot return — dead blocks, and blocks ending in panic
//     or a fatal/exit call — vacuously satisfy the query: no caller
//     observes state through them.
//
// Cycles are handled by a greatest fixpoint, so an infinite loop (no path
// to exit) also vacuously satisfies the query.
func MustReach(fn *Function, from Instruction, pred func(Instruction) bool) bool {
	_, leaks := Leak(fn, from, pred)
	return !leaks
}

// Leak is MustReach with a witness: it reports whether some live path
// from just after `from` reaches a returning exit without passing an
// instruction satisfying pred and, if so, the first such exit block in
// successor order. The block is nil when fn cannot be analyzed
// (Incomplete or bodiless), which counts as a leak.
func Leak(fn *Function, from Instruction, pred func(Instruction) bool) (*Block, bool) {
	if fn == nil || fn.Incomplete || len(fn.Blocks) == 0 || from.Block() == nil {
		return nil, true
	}
	if entryDeferSatisfies(fn, pred) {
		return nil, false
	}
	b := from.Block()
	for i := from.index() + 1; i < len(b.Instrs); i++ {
		if pred(b.Instrs[i]) {
			return nil, false
		}
	}
	if len(b.Succs) == 0 {
		if nonReturningExit(b) {
			return nil, false
		}
		return b, true
	}
	ok := mustReachSets(fn, pred)
	// Every failing block has a failing successor or is a returning exit,
	// so a walk over failing blocks finds an exit.
	seen := map[*Block]bool{}
	var walk func(b *Block) *Block
	walk = func(b *Block) *Block {
		if ok[b] || seen[b] {
			return nil
		}
		seen[b] = true
		if len(b.Succs) == 0 {
			return b
		}
		for _, s := range b.Succs {
			if exit := walk(s); exit != nil {
				return exit
			}
		}
		return nil
	}
	for _, s := range b.Succs {
		if exit := walk(s); exit != nil {
			return exit, true
		}
	}
	return nil, false
}

// MustReachFromEntry reports whether every live path from function entry
// to a returning exit passes an instruction satisfying pred — i.e. whether
// fn unconditionally performs the action pred looks for.
func MustReachFromEntry(fn *Function, pred func(Instruction) bool) bool {
	if fn == nil || fn.Incomplete || len(fn.Blocks) == 0 {
		return false
	}
	if entryDeferSatisfies(fn, pred) {
		return true
	}
	return mustReachSets(fn, pred)[fn.Blocks[0]]
}

func entryDeferSatisfies(fn *Function, pred func(Instruction) bool) bool {
	for _, in := range fn.Blocks[0].Instrs {
		if c, ok := in.(*Call); ok && c.IsDefer && pred(in) {
			return true
		}
	}
	return false
}

// mustReachSets computes, per block, whether every path from the block's
// start to a returning exit passes a satisfying instruction (greatest
// fixpoint: blocks start optimistic and are demoted until stable).
func mustReachSets(fn *Function, pred func(Instruction) bool) map[*Block]bool {
	ok := make(map[*Block]bool, len(fn.Blocks))
	hasPred := make(map[*Block]bool, len(fn.Blocks))
	for _, b := range fn.Blocks {
		ok[b] = true
		for _, in := range b.Instrs {
			if pred(in) {
				hasPred[b] = true
				break
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, b := range fn.Blocks {
			v := blockOK(b, hasPred[b], ok)
			if v != ok[b] {
				ok[b] = v
				changed = true
			}
		}
	}
	return ok
}

func blockOK(b *Block, hasPred bool, ok map[*Block]bool) bool {
	if hasPred {
		return true
	}
	if len(b.Succs) == 0 {
		return nonReturningExit(b)
	}
	for _, s := range b.Succs {
		if !ok[s] {
			return false
		}
	}
	return true
}

// nonReturningExit reports whether an exit block cannot actually return to
// the caller: it is dead code, or it ends in panic / a conventional
// process-terminating call.
func nonReturningExit(b *Block) bool {
	if !b.Live {
		return true
	}
	for i := len(b.Instrs) - 1; i >= 0; i-- {
		switch in := b.Instrs[i].(type) {
		case *Return:
			return false
		case *Call:
			if in.IsDefer || in.IsGo {
				continue
			}
			if in.Builtin == "panic" {
				return true
			}
			switch in.CalleeName() {
			case "Fatal", "Fatalf", "Fatalln", "Exit", "Goexit":
				return true
			}
			return false
		}
	}
	return false
}
