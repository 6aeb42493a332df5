package ssalite

import "sort"

// Reachable walks the package's static call graph from the declared
// functions named in roots and returns every function it visits, mapped to
// the root it is attributed to.
//
// A call leads to every declared function named like its callee: methods
// of different types may share a name, and the walk follows all of them,
// conservatively. A MakeClosure leads to the literal's Function. follow,
// when non-nil, vets each root (site nil) and each edge (site is the
// *Call or *MakeClosure); a refused function is neither visited nor
// walked through. Functions declared in _test.go files and Incomplete
// functions are never visited.
//
// Roots claim themselves first and are then walked in sorted name order
// (source order among same-named roots), so a function reachable from
// several roots is attributed to the first of them in that order, and a
// root reached from another root keeps its own attribution.
func (s *SSA) Reachable(roots map[string]bool, follow func(site Instruction, callee *Function) bool) map[*Function]*Function {
	accept := func(site Instruction, fn *Function) bool {
		return !fn.inTest && !fn.Incomplete && (follow == nil || follow(site, fn))
	}
	byName := map[string][]*Function{}
	var starts []*Function
	for _, fn := range s.Funcs {
		if fn.Decl == nil {
			continue
		}
		byName[fn.Name] = append(byName[fn.Name], fn)
		if roots[fn.Name] && accept(nil, fn) {
			starts = append(starts, fn)
		}
	}
	sort.SliceStable(starts, func(i, j int) bool { return starts[i].Name < starts[j].Name })

	rootOf := make(map[*Function]*Function, len(starts))
	for _, r := range starts {
		rootOf[r] = r
	}
	for _, r := range starts {
		queue := []*Function{r}
		visit := func(site Instruction, callee *Function) {
			if _, seen := rootOf[callee]; seen || !accept(site, callee) {
				return
			}
			rootOf[callee] = r
			queue = append(queue, callee)
		}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			fn.Instrs(func(in Instruction) {
				switch in := in.(type) {
				case *Call:
					for _, callee := range byName[in.CalleeName()] {
						visit(in, callee)
					}
				case *MakeClosure:
					visit(in, in.Fn)
				}
			})
		}
	}
	return rootOf
}
