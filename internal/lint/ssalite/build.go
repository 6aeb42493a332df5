package ssalite

import (
	"go/ast"
	"go/token"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"
	"golang.org/x/tools/go/types/typeutil"
)

// builder drives translation of all functions of one package.
type builder struct {
	pass *analysis.Pass
	ssa  *SSA
}

// buildFunc translates fn's body. A panic anywhere in translation (the
// builder is defensive, but it runs over arbitrary packages) marks fn
// Incomplete instead of killing the whole analysis.
func (b *builder) buildFunc(fn *Function, cfgs *ctrlflow.CFGs) {
	defer func() {
		if recover() != nil {
			fn.Incomplete = true
			fn.Blocks = nil
		}
	}()

	var g *cfg.CFG
	var typ *ast.FuncType
	var body *ast.BlockStmt
	switch {
	case fn.Decl != nil:
		if fn.Decl.Body == nil {
			return
		}
		g = cfgs.FuncDecl(fn.Decl)
		typ, body = fn.Decl.Type, fn.Decl.Body
	case fn.Lit != nil:
		g = cfgs.FuncLit(fn.Lit)
		typ, body = fn.Lit.Type, fn.Lit.Body
	}
	if g == nil || body == nil {
		return
	}

	fb := &funcBuilder{
		builder: b,
		fn:      fn,
		info:    b.pass.TypesInfo,
		cache:   map[ast.Expr]Value{},
		ranges:  map[ast.Expr]rangeRole{},
	}
	fb.declareParams(typ, fn.Decl)
	fb.collectRanges(body)

	// Mirror the cfg blocks 1:1.
	mirror := make(map[*cfg.Block]*Block, len(g.Blocks))
	for i, cb := range g.Blocks {
		mirror[cb] = &Block{Index: i, Live: cb.Live}
	}
	for _, cb := range g.Blocks {
		nb := mirror[cb]
		for _, succ := range cb.Succs {
			nb.Succs = append(nb.Succs, mirror[succ])
		}
		fn.Blocks = append(fn.Blocks, nb)
	}
	for _, cb := range g.Blocks {
		fb.cur = mirror[cb]
		for _, n := range cb.Nodes {
			fb.node(n)
		}
	}
	// Record branch conditions once every block is translated: cfg lists
	// the condition in the block that branches, not in the arms.
	for _, cb := range g.Blocks {
		if is, ok := cb.Stmt.(*ast.IfStmt); ok && (cb.Kind == cfg.KindIfThen || cb.Kind == cfg.KindIfElse) {
			mirror[cb].Cond, mirror[cb].CondTrue = fb.cache[is.Cond], cb.Kind == cfg.KindIfThen
		}
	}
}

// rangeRole marks an expression that is the key or value variable of a
// range statement: cfg lists those as bare nodes, but they are assignment
// targets, not reads.
type rangeRole struct {
	stmt  *ast.RangeStmt
	isKey bool
}

type funcBuilder struct {
	*builder
	fn    *Function
	info  *types.Info
	cur   *Block
	cache map[ast.Expr]Value
	// ranges maps the Key/Value exprs of the function's own range
	// statements (not those of nested literals) to their role.
	ranges map[ast.Expr]rangeRole
}

// setBlock lets emit place the embedded register of any instruction.
type placeable interface{ setBlock(*Block, int) }

func (r *register) setBlock(b *Block, i int) { r.blk = b; r.idx = i }

func (fb *funcBuilder) emit(in Instruction) Instruction {
	if fb.cur == nil {
		// Defensive: a node outside any block (should not happen).
		fb.cur = &Block{Index: len(fb.fn.Blocks), Live: false}
		fb.fn.Blocks = append(fb.fn.Blocks, fb.cur)
	}
	in.(placeable).setBlock(fb.cur, len(fb.cur.Instrs))
	fb.cur.Instrs = append(fb.cur.Instrs, in)
	return in
}

func (fb *funcBuilder) reg(pos token.Pos, typ types.Type) register {
	return register{pos: pos, typ: typ}
}

func (fb *funcBuilder) typeOf(e ast.Expr) types.Type { return fb.info.TypeOf(e) }

// declareParams creates the receiver, parameter and named-result cells.
func (fb *funcBuilder) declareParams(typ *ast.FuncType, decl *ast.FuncDecl) {
	declare := func(fl *ast.FieldList, param bool, isRecv bool) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				obj := fb.info.Defs[name]
				if obj == nil || name.Name == "_" {
					continue
				}
				c := &Cell{Obj: obj, IsParam: param, pos: name.Pos(), typ: obj.Type()}
				fb.fn.cells[obj] = c
				if isRecv {
					fb.fn.Recv = c
				} else if param {
					fb.fn.Params = append(fb.fn.Params, c)
				}
			}
		}
	}
	if decl != nil {
		declare(decl.Recv, true, true)
	}
	declare(typ.Params, true, false)
	declare(typ.Results, false, false)
}

// collectRanges records the key/value exprs of range statements directly in
// body, skipping nested function literals (they build their own ranges).
func (fb *funcBuilder) collectRanges(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			if n.Key != nil {
				fb.ranges[n.Key] = rangeRole{stmt: n, isKey: true}
			}
			if n.Value != nil {
				fb.ranges[n.Value] = rangeRole{stmt: n, isKey: false}
			}
		}
		return true
	})
}

// node translates one cfg block node: a statement, or an expression that
// cfg lifted out (conditions, range operands, range key/value).
func (fb *funcBuilder) node(n ast.Node) {
	switch n := n.(type) {
	case ast.Stmt:
		fb.stmt(n)
	case ast.Expr:
		if role, ok := fb.ranges[n]; ok {
			fb.rangeAssign(n, role)
			return
		}
		fb.expr(n)
	}
}

// rangeAssign models the per-iteration `key, value := range X` stores.
func (fb *funcBuilder) rangeAssign(target ast.Expr, role rangeRole) {
	if id, ok := ast.Unparen(target).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	x := fb.expr(role.stmt.X)
	elem := fb.emit(&RangeElem{register: fb.reg(target.Pos(), fb.typeOf(target)), X: x, IsKey: role.isKey})
	fb.assignTo(target, elem.(Value))
}

func (fb *funcBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		fb.assign(s)
	case *ast.ExprStmt:
		fb.expr(s.X)
	case *ast.IncDecStmt:
		addr := fb.addr(s.X)
		if addr == nil {
			return
		}
		load := fb.emit(&Load{register: fb.reg(s.X.Pos(), fb.typeOf(s.X)), Addr: addr}).(Value)
		op := token.ADD
		if s.Tok == token.DEC {
			op = token.SUB
		}
		one := &Const{pos: s.Pos(), typ: fb.typeOf(s.X)}
		val := fb.emit(&BinOp{register: fb.reg(s.Pos(), fb.typeOf(s.X)), Op: op, X: load, Y: one}).(Value)
		fb.emit(&Store{register: fb.reg(s.Pos(), nil), Addr: addr, Val: val})
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					fb.valueSpec(vs)
				}
			}
		}
	case *ast.DeferStmt:
		fb.callExpr(s.Call, true, false)
	case *ast.GoStmt:
		fb.callExpr(s.Call, false, true)
	case *ast.SendStmt:
		fb.emit(&Send{register: fb.reg(s.Pos(), nil), Chan: fb.expr(s.Chan), Val: fb.expr(s.Value)})
	case *ast.ReturnStmt:
		var results []Value
		for _, r := range s.Results {
			results = append(results, fb.expr(r))
		}
		fb.emit(&Return{register: fb.reg(s.Pos(), nil), Results: results})
	case *ast.LabeledStmt:
		fb.stmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
		// control only
	}
}

// valueSpec translates `var a, b T = x, y` (or an init-less declaration).
func (fb *funcBuilder) valueSpec(vs *ast.ValueSpec) {
	var vals []Value
	switch {
	case len(vs.Values) == 1 && len(vs.Names) > 1:
		tuple := fb.expr(vs.Values[0])
		for i := range vs.Names {
			vals = append(vals, fb.extract(tuple, i, vs.Values[0].Pos()))
		}
	default:
		for _, v := range vs.Values {
			vals = append(vals, fb.expr(v))
		}
	}
	for i, name := range vs.Names {
		if i < len(vals) {
			fb.assignTo(name, vals[i])
		} else if name.Name != "_" {
			// Ensure a cell exists even without an initializer.
			if obj := fb.info.Defs[name]; obj != nil {
				fb.cellFor(obj, name.Pos())
			}
		}
	}
}

func (fb *funcBuilder) assign(s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// Op-assign: x op= y  ==>  load x; binop; store x.
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return
		}
		rhs := fb.expr(s.Rhs[0])
		op := s.Tok + (token.ADD - token.ADD_ASSIGN)
		if idx, ok := ast.Unparen(s.Lhs[0]).(*ast.IndexExpr); ok && isMap(fb.typeOf(idx.X)) {
			m, k := fb.expr(idx.X), fb.expr(idx.Index)
			old := fb.emit(&Load{register: fb.reg(idx.Pos(), fb.typeOf(idx)), Addr: fb.emit(&IndexAddr{register: fb.reg(idx.Pos(), nil), X: m, Index: k}).(Value)}).(Value)
			val := fb.emit(&BinOp{register: fb.reg(s.Pos(), fb.typeOf(s.Lhs[0])), Op: op, X: old, Y: rhs}).(Value)
			fb.emit(&MapUpdate{register: fb.reg(s.Pos(), nil), Map: m, Key: k, Val: val})
			return
		}
		addr := fb.addr(s.Lhs[0])
		if addr == nil {
			return
		}
		old := fb.emit(&Load{register: fb.reg(s.Lhs[0].Pos(), fb.typeOf(s.Lhs[0])), Addr: addr}).(Value)
		val := fb.emit(&BinOp{register: fb.reg(s.Pos(), fb.typeOf(s.Lhs[0])), Op: op, X: old, Y: rhs}).(Value)
		fb.emit(&Store{register: fb.reg(s.Pos(), nil), Addr: addr, Val: val})
		return
	}

	var vals []Value
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		tuple := fb.expr(s.Rhs[0])
		for i := range s.Lhs {
			vals = append(vals, fb.extract(tuple, i, s.Rhs[0].Pos()))
		}
	} else {
		for _, r := range s.Rhs {
			vals = append(vals, fb.expr(r))
		}
	}
	for i, lhs := range s.Lhs {
		if i < len(vals) {
			fb.assignTo(lhs, vals[i])
		}
	}
}

// assignTo stores val into the location denoted by lhs.
func (fb *funcBuilder) assignTo(lhs ast.Expr, val Value) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if idx, ok := lhs.(*ast.IndexExpr); ok && isMap(fb.typeOf(idx.X)) {
		fb.emit(&MapUpdate{
			register: fb.reg(lhs.Pos(), nil),
			Map:      fb.expr(idx.X), Key: fb.expr(idx.Index), Val: val,
		})
		return
	}
	addr := fb.addr(lhs)
	if addr == nil {
		return
	}
	fb.emit(&Store{register: fb.reg(lhs.Pos(), nil), Addr: addr, Val: val})
}

// cellFor returns (creating on demand) the cell of a function-local
// variable, or nil when obj is not function-local.
func (fb *funcBuilder) cellFor(obj types.Object, pos token.Pos) *Cell {
	if obj == nil {
		return nil
	}
	if c := fb.fn.Cell(obj); c != nil {
		return c
	}
	if v, ok := obj.(*types.Var); !ok || v.IsField() {
		return nil
	}
	if obj.Parent() == fb.pass.Pkg.Scope() || obj.Parent() == types.Universe {
		return nil
	}
	c := &Cell{Obj: obj, pos: pos, typ: obj.Type()}
	fb.fn.cells[obj] = c
	return c
}

// addr translates an assignable expression to an address value: a *Cell,
// *Global, *FieldAddr, *IndexAddr, or (for explicit derefs) the pointer
// value itself. Returns nil for the blank identifier.
func (fb *funcBuilder) addr(e ast.Expr) Value {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return nil
		}
		obj := fb.info.Defs[e]
		if obj == nil {
			obj = fb.info.Uses[e]
		}
		if c := fb.cellFor(obj, e.Pos()); c != nil {
			return c
		}
		if obj != nil {
			return &Global{Obj: obj, pos: e.Pos()}
		}
		return &Opaque{pos: e.Pos()}
	case *ast.SelectorExpr:
		if g := fb.qualified(e); g != nil {
			return g
		}
		sel, ok := fb.info.Selections[e]
		if !ok || sel.Kind() != types.FieldVal {
			return &Opaque{Ops: []Value{fb.expr(e.X)}, pos: e.Pos()}
		}
		var base Value
		if isPointer(fb.typeOf(e.X)) {
			base = fb.expr(e.X)
		} else {
			base = fb.addr(e.X)
			if base == nil {
				base = &Opaque{pos: e.X.Pos()}
			}
		}
		fld, _ := sel.Obj().(*types.Var)
		return fb.emit(&FieldAddr{register: fb.reg(e.Sel.Pos(), nil), X: base, Field: fld, Sel: e}).(Value)
	case *ast.IndexExpr:
		return fb.emit(&IndexAddr{register: fb.reg(e.Pos(), nil), X: fb.expr(e.X), Index: fb.expr(e.Index)}).(Value)
	case *ast.StarExpr:
		return fb.expr(e.X)
	}
	return &Opaque{Ops: []Value{fb.expr(e)}, pos: e.Pos()}
}

// qualified resolves pkg.Name selector expressions to a Global, or nil.
func (fb *funcBuilder) qualified(e *ast.SelectorExpr) *Global {
	id, ok := ast.Unparen(e.X).(*ast.Ident)
	if !ok {
		return nil
	}
	if _, ok := fb.info.Uses[id].(*types.PkgName); !ok {
		return nil
	}
	if obj := fb.info.Uses[e.Sel]; obj != nil {
		return &Global{Obj: obj, pos: e.Pos()}
	}
	return nil
}

// expr translates an expression to a Value, memoized per ast.Expr pointer:
// cfg lists conditions and range operands both as standalone nodes and
// within statements, and re-translation would duplicate instructions.
func (fb *funcBuilder) expr(e ast.Expr) Value {
	if v, ok := fb.cache[e]; ok {
		return v
	}
	v := fb.exprUncached(e)
	if v == nil {
		v = &Opaque{pos: e.Pos(), typ: fb.typeOf(e)}
	}
	fb.cache[e] = v
	return v
}

func (fb *funcBuilder) exprUncached(e ast.Expr) Value {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return fb.expr(e.X)
	case *ast.Ident:
		return fb.identValue(e)
	case *ast.BasicLit:
		return &Const{pos: e.Pos(), typ: fb.typeOf(e)}
	case *ast.SelectorExpr:
		if g := fb.qualified(e); g != nil {
			if _, isVar := g.Obj.(*types.Var); isVar {
				return fb.emit(&Load{register: fb.reg(e.Pos(), fb.typeOf(e)), Addr: g}).(Value)
			}
			return g
		}
		sel, ok := fb.info.Selections[e]
		if ok && sel.Kind() == types.FieldVal {
			fld, _ := sel.Obj().(*types.Var)
			fa := fb.emit(&FieldAddr{register: fb.reg(e.Sel.Pos(), nil), X: fb.expr(e.X), Field: fld, Sel: e}).(Value)
			return fb.emit(&Load{register: fb.reg(e.Pos(), fb.typeOf(e)), Addr: fa}).(Value)
		}
		// Method value or unresolved selection.
		return &Opaque{Ops: []Value{fb.expr(e.X)}, pos: e.Pos(), typ: fb.typeOf(e)}
	case *ast.CallExpr:
		return fb.callExpr(e, false, false)
	case *ast.CompositeLit:
		return fb.compositeLit(e, false)
	case *ast.UnaryExpr:
		switch e.Op {
		case token.AND:
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				return fb.compositeLit(cl, true)
			}
			if a := fb.addr(e.X); a != nil {
				return a
			}
			return &Opaque{Ops: []Value{fb.expr(e.X)}, pos: e.Pos(), typ: fb.typeOf(e)}
		default:
			return fb.emit(&UnOp{register: fb.reg(e.Pos(), fb.typeOf(e)), Op: e.Op, X: fb.expr(e.X)}).(Value)
		}
	case *ast.StarExpr:
		return fb.emit(&Load{register: fb.reg(e.Pos(), fb.typeOf(e)), Addr: fb.expr(e.X)}).(Value)
	case *ast.BinaryExpr:
		return fb.emit(&BinOp{register: fb.reg(e.Pos(), fb.typeOf(e)), Op: e.Op, X: fb.expr(e.X), Y: fb.expr(e.Y)}).(Value)
	case *ast.IndexExpr:
		// Generic instantiation: the "index" is a type argument.
		if obj := fb.info.Uses[identOf(e.X)]; obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return &Global{Obj: obj, pos: e.Pos()}
			}
		}
		ia := fb.emit(&IndexAddr{register: fb.reg(e.Pos(), nil), X: fb.expr(e.X), Index: fb.expr(e.Index)}).(Value)
		return fb.emit(&Load{register: fb.reg(e.Pos(), fb.typeOf(e)), Addr: ia}).(Value)
	case *ast.IndexListExpr:
		if obj := fb.info.Uses[identOf(e.X)]; obj != nil {
			return &Global{Obj: obj, pos: e.Pos()}
		}
		return &Opaque{Ops: []Value{fb.expr(e.X)}, pos: e.Pos(), typ: fb.typeOf(e)}
	case *ast.SliceExpr:
		s := &Slice{register: fb.reg(e.Pos(), fb.typeOf(e)), X: fb.expr(e.X)}
		if e.Low != nil {
			s.Low = fb.expr(e.Low)
		}
		if e.High != nil {
			s.High = fb.expr(e.High)
		}
		if e.Max != nil {
			s.Max = fb.expr(e.Max)
		}
		return fb.emit(s).(Value)
	case *ast.TypeAssertExpr:
		var asserted types.Type
		if e.Type != nil {
			asserted = fb.typeOf(e.Type)
		}
		return fb.emit(&TypeAssert{register: fb.reg(e.Pos(), fb.typeOf(e)), X: fb.expr(e.X), Asserted: asserted}).(Value)
	case *ast.FuncLit:
		fn := fb.ssa.LitFunc[e]
		if fn == nil {
			return &Opaque{pos: e.Pos(), typ: fb.typeOf(e)}
		}
		return fb.emit(&MakeClosure{register: fb.reg(e.Pos(), fb.typeOf(e)), Lit: e, Fn: fn}).(Value)
	}
	return &Opaque{pos: e.Pos(), typ: fb.typeOf(e)}
}

func (fb *funcBuilder) identValue(e *ast.Ident) Value {
	obj := fb.info.Uses[e]
	if obj == nil {
		obj = fb.info.Defs[e]
	}
	switch obj := obj.(type) {
	case nil:
		return &Opaque{pos: e.Pos(), typ: fb.typeOf(e)}
	case *types.Const, *types.Nil:
		return &Const{pos: e.Pos(), typ: fb.typeOf(e)}
	case *types.Var:
		if c := fb.cellFor(obj, e.Pos()); c != nil {
			return fb.emit(&Load{register: fb.reg(e.Pos(), fb.typeOf(e)), Addr: c}).(Value)
		}
		return fb.emit(&Load{register: fb.reg(e.Pos(), fb.typeOf(e)), Addr: &Global{Obj: obj, pos: e.Pos()}}).(Value)
	case *types.Func:
		return &Global{Obj: obj, pos: e.Pos()}
	}
	return &Opaque{pos: e.Pos(), typ: fb.typeOf(e)}
}

// compositeLit translates T{...} (heap=false) or &T{...}/new(T) (heap=true).
func (fb *funcBuilder) compositeLit(e *ast.CompositeLit, heap bool) Value {
	var elts []Value
	for _, elt := range e.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			elts = append(elts, fb.expr(kv.Value))
			continue
		}
		elts = append(elts, fb.expr(elt))
	}
	typ := fb.typeOf(e)
	if heap && typ != nil {
		typ = types.NewPointer(typ)
	}
	return fb.emit(&AllocLit{register: fb.reg(e.Pos(), typ), Comp: e, Heap: heap, Elts: elts}).(Value)
}

// callExpr translates a call, conversion, or builtin.
func (fb *funcBuilder) callExpr(e *ast.CallExpr, isDefer, isGo bool) Value {
	if v, ok := fb.cache[e]; ok {
		return v
	}
	v := fb.callUncached(e, isDefer, isGo)
	fb.cache[e] = v
	return v
}

func (fb *funcBuilder) callUncached(e *ast.CallExpr, isDefer, isGo bool) Value {
	// Conversion T(x)?
	if tv, ok := fb.info.Types[e.Fun]; ok && tv.IsType() {
		if len(e.Args) != 1 {
			return &Opaque{pos: e.Pos(), typ: fb.typeOf(e)}
		}
		x := fb.expr(e.Args[0])
		if t := fb.typeOf(e); t != nil && types.IsInterface(t) {
			return fb.emit(&MakeInterface{register: fb.reg(e.Pos(), t), X: x}).(Value)
		}
		return fb.emit(&Convert{register: fb.reg(e.Pos(), fb.typeOf(e)), X: x}).(Value)
	}

	if bi, ok := typeutil.Callee(fb.info, e).(*types.Builtin); ok {
		return fb.builtinCall(e, bi.Name(), isDefer, isGo)
	}

	call := &Call{register: fb.reg(e.Pos(), fb.typeOf(e)), Expr: e, IsDefer: isDefer, IsGo: isGo}
	for _, a := range e.Args {
		call.Args = append(call.Args, fb.expr(a))
	}
	if fn, ok := typeutil.Callee(fb.info, e).(*types.Func); ok {
		call.Callee = fn
	}
	switch fun := ast.Unparen(e.Fun).(type) {
	case *ast.SelectorExpr:
		call.Method = fun.Sel.Name
		if sel, ok := fb.info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			call.Recv = fb.expr(fun.X)
		}
	case *ast.Ident:
		// Static package-level call (Callee set above) or dynamic call
		// through a closure-valued variable.
		if call.Callee == nil {
			call.Fun = fb.expr(fun)
		}
	default:
		call.Fun = fb.expr(e.Fun)
	}
	return fb.emit(call).(Value)
}

func (fb *funcBuilder) builtinCall(e *ast.CallExpr, name string, isDefer, isGo bool) Value {
	arg := func(i int) Value {
		if i < len(e.Args) {
			return fb.expr(e.Args[i])
		}
		return nil
	}
	switch name {
	case "make":
		t := fb.typeOf(e)
		if t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				return fb.emit(&MakeSlice{register: fb.reg(e.Pos(), t), Len: arg(1), Cap: arg(2)}).(Value)
			case *types.Map:
				return fb.emit(&MakeMap{register: fb.reg(e.Pos(), t), Size: arg(1)}).(Value)
			case *types.Chan:
				return fb.emit(&MakeChan{register: fb.reg(e.Pos(), t), Size: arg(1)}).(Value)
			}
		}
	case "append":
		a := &Append{register: fb.reg(e.Pos(), fb.typeOf(e)), Slice: fb.expr(e.Args[0]), Ellipsis: e.Ellipsis.IsValid()}
		for _, x := range e.Args[1:] {
			a.Args = append(a.Args, fb.expr(x))
		}
		return fb.emit(a).(Value)
	case "delete":
		if len(e.Args) == 2 {
			return fb.emit(&MapDelete{register: fb.reg(e.Pos(), nil), Map: arg(0), Key: arg(1)}).(Value)
		}
	case "new":
		t := fb.typeOf(e)
		return fb.emit(&AllocLit{register: fb.reg(e.Pos(), t), Heap: true}).(Value)
	}
	call := &Call{register: fb.reg(e.Pos(), fb.typeOf(e)), Expr: e, Builtin: name, IsDefer: isDefer, IsGo: isGo}
	for _, a := range e.Args {
		// Type arguments of builtins (e.g. make fallthrough) are harmless
		// as Opaques.
		call.Args = append(call.Args, fb.expr(a))
	}
	return fb.emit(call).(Value)
}

// extract emits an Extract typed from the tuple's signature when known,
// so type-driven taint sources survive multi-result unpacking.
func (fb *funcBuilder) extract(tuple Value, i int, pos token.Pos) Value {
	var typ types.Type
	if t, ok := tuple.Type().(*types.Tuple); ok && i < t.Len() {
		typ = t.At(i).Type()
	}
	return fb.emit(&Extract{register: fb.reg(pos, typ), Tuple: tuple, Index: i}).(Value)
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}

func isPointer(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Pointer)
	return ok
}

func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
