package ssalite_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/analysis/passes/inspect"

	"repro/internal/lint/ssalite"
)

// build typechecks src (which must not import anything) and runs the
// inspect → ctrlflow → ssalite analyzer chain over it.
func build(t *testing.T, src string) *ssalite.SSA {
	t.Helper()
	return buildFiles(t, "p.go", src)
}

// buildFiles is build over several files of one package, given as
// alternating file names and sources.
func buildFiles(t *testing.T, namesAndSrcs ...string) *ssalite.SSA {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for i := 0; i+1 < len(namesAndSrcs); i += 2 {
		f, err := parser.ParseFile(fset, namesAndSrcs[i], namesAndSrcs[i+1], parser.ParseComments)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := (&types.Config{}).Check("p", fset, files, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	results := map[*analysis.Analyzer]any{}
	for _, a := range []*analysis.Analyzer{inspect.Analyzer, ctrlflow.Analyzer, ssalite.Analyzer} {
		resultOf := map[*analysis.Analyzer]any{}
		for _, req := range a.Requires {
			resultOf[req] = results[req]
		}
		pass := &analysis.Pass{
			Analyzer:          a,
			Fset:              fset,
			Files:             files,
			Pkg:               pkg,
			TypesInfo:         info,
			TypesSizes:        types.SizesFor("gc", "amd64"),
			ResultOf:          resultOf,
			Report:            func(analysis.Diagnostic) {},
			ImportObjectFact:  func(types.Object, analysis.Fact) bool { return false },
			ImportPackageFact: func(*types.Package, analysis.Fact) bool { return false },
			ExportObjectFact:  func(types.Object, analysis.Fact) {},
			ExportPackageFact: func(analysis.Fact) {},
			AllObjectFacts:    func() []analysis.ObjectFact { return nil },
			AllPackageFacts:   func() []analysis.PackageFact { return nil },
		}
		res, err := a.Run(pass)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		results[a] = res
	}
	return results[ssalite.Analyzer].(*ssalite.SSA)
}

func fn(t *testing.T, s *ssalite.SSA, name string) *ssalite.Function {
	t.Helper()
	for _, f := range s.Funcs {
		if f.Name == name {
			if f.Incomplete {
				t.Fatalf("function %s marked Incomplete", name)
			}
			return f
		}
	}
	t.Fatalf("function %s not found; have %v", name, s.Funcs)
	return nil
}

func countInstrs(f *ssalite.Function, match func(ssalite.Instruction) bool) int {
	n := 0
	f.Instrs(func(in ssalite.Instruction) {
		if match(in) {
			n++
		}
	})
	return n
}

func callsTo(f *ssalite.Function, name string) int {
	return countInstrs(f, func(in ssalite.Instruction) bool {
		c, ok := in.(*ssalite.Call)
		return ok && c.CalleeName() == name
	})
}

const srcBasic = `package p

type S struct {
	x    int
	m    map[string]int
	list []int
}

func (s *S) publish() {}

func use(int) {}

func (s *S) Mutate(v int) {
	s.x = v
	s.m["k"] = v
	s.list = append(s.list, v)
	s.publish()
}
`

func TestBasicInstructions(t *testing.T) {
	ssa := build(t, srcBasic)
	f := fn(t, ssa, "Mutate")

	if got := countInstrs(f, func(in ssalite.Instruction) bool {
		st, ok := in.(*ssalite.Store)
		if !ok {
			return false
		}
		fa, ok := st.Addr.(*ssalite.FieldAddr)
		return ok && fa.Field != nil && fa.Field.Name() == "x"
	}); got != 1 {
		t.Errorf("stores to .x = %d, want 1", got)
	}
	if got := countInstrs(f, func(in ssalite.Instruction) bool {
		_, ok := in.(*ssalite.MapUpdate)
		return ok
	}); got != 1 {
		t.Errorf("map updates = %d, want 1", got)
	}
	if got := countInstrs(f, func(in ssalite.Instruction) bool {
		_, ok := in.(*ssalite.Append)
		return ok
	}); got != 1 {
		t.Errorf("appends = %d, want 1", got)
	}
	if got := callsTo(f, "publish"); got != 1 {
		t.Errorf("calls to publish = %d, want 1", got)
	}
}

const srcMemo = `package p

func producer() []int { return nil }
func use(int)         {}

func Consume() {
	for _, v := range producer() {
		use(v)
	}
}
`

// cfg lists the range operand both as a standalone node and inside the
// statement; without per-expression memoization producer() would appear
// as two Call instructions and site-counting analyzers would overcount.
func TestRangeOperandTranslatedOnce(t *testing.T) {
	ssa := build(t, srcMemo)
	f := fn(t, ssa, "Consume")
	if got := callsTo(f, "producer"); got != 1 {
		t.Fatalf("calls to producer = %d, want 1 (memoization broken)", got)
	}
	// The range value must flow from the ranged operand.
	if got := countInstrs(f, func(in ssalite.Instruction) bool {
		_, ok := in.(*ssalite.RangeElem)
		return ok
	}); got != 1 {
		t.Fatalf("range elems = %d, want 1", got)
	}
}

const srcMustReach = `package p

type S struct{ x, y int }

func (s *S) publish() {}

func (s *S) Good(v int) {
	s.x = v
	s.publish()
}

func (s *S) Deferred(v int) {
	defer s.publish()
	if v > 0 {
		return
	}
	s.x = v
}

func (s *S) Leaky(v int) {
	s.x = v
	if v > 0 {
		return
	}
	s.publish()
}

func (s *S) PanicExit(v int) {
	s.x = v
	if v < 0 {
		panic("bad")
	}
	s.publish()
}
`

func firstStore(t *testing.T, f *ssalite.Function) ssalite.Instruction {
	t.Helper()
	var found ssalite.Instruction
	f.Instrs(func(in ssalite.Instruction) {
		if _, ok := in.(*ssalite.Store); ok && found == nil {
			if fa, ok := in.(*ssalite.Store).Addr.(*ssalite.FieldAddr); ok && fa.Field.Name() == "x" {
				found = in
			}
		}
	})
	if found == nil {
		t.Fatal("no store to .x found")
	}
	return found
}

func TestMustReach(t *testing.T) {
	ssa := build(t, srcMustReach)
	isPublish := func(in ssalite.Instruction) bool {
		c, ok := in.(*ssalite.Call)
		return ok && c.CalleeName() == "publish"
	}
	for _, tc := range []struct {
		fn   string
		want bool
	}{
		{"Good", true},
		{"Deferred", true}, // entry-block defer runs at every exit
		{"Leaky", false},   // early return skips publish
		{"PanicExit", true},
	} {
		f := fn(t, ssa, tc.fn)
		if got := ssalite.MustReach(f, firstStore(t, f), isPublish); got != tc.want {
			t.Errorf("MustReach(%s) = %v, want %v", tc.fn, got, tc.want)
		}
	}

	// Leak names the exit a violating path reaches: Leaky's early return.
	leaky := fn(t, ssa, "Leaky")
	exit, leaks := ssalite.Leak(leaky, firstStore(t, leaky), isPublish)
	if !leaks || exit == nil {
		t.Fatalf("Leak(Leaky) = %v, %v; want an exit block", exit, leaks)
	}
	if _, ok := exit.Instrs[len(exit.Instrs)-1].(*ssalite.Return); !ok || exit.Cond == nil || !exit.CondTrue {
		t.Errorf("Leak(Leaky) exit = %v (cond %v, %v), want the then arm of if v > 0 ending in return", exit.Instrs, exit.Cond, exit.CondTrue)
	}
	if _, leaks := ssalite.Leak(fn(t, ssa, "Good"), firstStore(t, fn(t, ssa, "Good")), isPublish); leaks {
		t.Error("Leak(Good) reports a leak")
	}

	// MustReachFromEntry: Deferred publishes unconditionally, Leaky does not.
	if !ssalite.MustReachFromEntry(fn(t, ssa, "Deferred"), isPublish) {
		t.Error("MustReachFromEntry(Deferred) = false, want true")
	}
	if ssalite.MustReachFromEntry(fn(t, ssa, "Leaky"), isPublish) {
		t.Error("MustReachFromEntry(Leaky) = true, want false")
	}
	if !ssalite.MustReachFromEntry(fn(t, ssa, "Good"), isPublish) {
		t.Error("MustReachFromEntry(Good) = false, want true")
	}
}

const srcClosure = `package p

func sink(func()) {}

func Outer() {
	captured := 0
	lit := func() {
		captured = 1
	}
	lit()
	sink(func() { captured = 2 })
	_ = captured
}
`

func TestClosureCellsShared(t *testing.T) {
	ssa := build(t, srcClosure)
	outer := fn(t, ssa, "Outer")
	lit1 := fn(t, ssa, "Outer$lit1")
	lit2 := fn(t, ssa, "Outer$lit2")

	var outerCell *ssalite.Cell
	for _, c := range outer.Cells() {
		if c.Obj != nil && c.Obj.Name() == "captured" {
			outerCell = c
		}
	}
	if outerCell == nil {
		t.Fatal("no cell for captured in Outer")
	}
	for _, lit := range []*ssalite.Function{lit1, lit2} {
		n := countInstrs(lit, func(in ssalite.Instruction) bool {
			st, ok := in.(*ssalite.Store)
			return ok && st.Addr == ssalite.Value(outerCell)
		})
		if n != 1 {
			t.Errorf("%s: stores through Outer's captured cell = %d, want 1", lit.Name, n)
		}
	}
}

const srcDefensive = `package p

type I interface{ M() int }

type T struct{ v int }

func (t T) M() int { return t.v }

func Weird(i I, ch chan int, arr [4]int) (out int) {
	defer func() { out++ }()
	select {
	case v := <-ch:
		out += v
	case ch <- 1:
	default:
	}
	switch x := i.(type) {
	case T:
		out += x.M()
	default:
	}
	m := map[[2]int]*T{}
	m[[2]int{1, 2}] = &T{v: arr[out%4]}
	for k, v := range m {
		_ = k
		out += v.v
	}
	goto done
done:
	return out
}
`

// The builder must translate arbitrary Go without panicking and without
// marking functions Incomplete; unmodeled constructs degrade to Opaque.
func TestDefensiveTranslation(t *testing.T) {
	ssa := build(t, srcDefensive)
	f := fn(t, ssa, "Weird")
	if len(f.Blocks) == 0 {
		t.Fatal("Weird has no blocks")
	}
}

const srcTuple = `package p

func two() (int, string) { return 0, "" }

func Use() (int, string) {
	a, b := two()
	return a, b
}
`

func TestTupleExtract(t *testing.T) {
	ssa := build(t, srcTuple)
	f := fn(t, ssa, "Use")
	if got := countInstrs(f, func(in ssalite.Instruction) bool {
		_, ok := in.(*ssalite.Extract)
		return ok
	}); got != 2 {
		t.Errorf("extracts = %d, want 2", got)
	}
	if got := callsTo(f, "two"); got != 1 {
		t.Errorf("calls to two = %d, want 1", got)
	}
}

const srcReach = `package p

type A struct{}
type B struct{}

func (A) rank() {}
func (B) rank() {}

func Zeta() { shared() }

func Alpha() {
	var a A
	var b B
	a.rank()
	b.rank()
	shared()
	helper()
}

func shared() {}
`

const srcReachTest = `package p

func helper() {}

func Beta() { shared() }
`

func TestReachable(t *testing.T) {
	ssa := buildFiles(t, "p.go", srcReach, "p_test.go", srcReachTest)
	got := ssa.Reachable(map[string]bool{"Zeta": true, "Alpha": true, "Beta": true}, nil)
	rootOf := map[string][]string{}
	for fn, root := range got {
		rootOf[fn.Name] = append(rootOf[fn.Name], root.Name)
	}
	// Both rank methods are visited, not just the last one declared.
	if r := rootOf["rank"]; len(r) != 2 || r[0] != "Alpha" || r[1] != "Alpha" {
		t.Errorf("rank methods attributed to %v, want [Alpha Alpha]", r)
	}
	// shared is reached from Zeta (declared first) and Alpha: the first
	// root in sorted order wins; each root keeps its own attribution.
	for name, want := range map[string]string{"shared": "Alpha", "Zeta": "Zeta", "Alpha": "Alpha"} {
		if r := rootOf[name]; len(r) != 1 || r[0] != want {
			t.Errorf("%s attributed to %v, want [%s]", name, r, want)
		}
	}
	// Declarations in _test.go files are neither roots nor callees.
	for _, name := range []string{"Beta", "helper"} {
		if r, ok := rootOf[name]; ok {
			t.Errorf("%s (declared in p_test.go) visited via %v", name, r)
		}
	}
	if len(got) != 5 {
		t.Errorf("visited %d functions, want 5 (Alpha, Zeta, shared, A.rank, B.rank)", len(got))
	}
}
