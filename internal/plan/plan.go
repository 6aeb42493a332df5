// Package plan defines physical execution plans: operator trees produced by
// the optimizer, consumed by the execution engine, cached by the PQO plan
// cache, and re-costed by the Recost API.
//
// A plan's structure is instance-independent; only cardinalities and costs
// change with the selectivity vector. Fingerprint() captures the structural
// identity used by the plan cache to detect "plan already stored".
package plan

import (
	"strconv"
	"strings"
)

// OpType identifies a physical operator.
type OpType int

const (
	// TableScan reads every row of a base table, applying all predicates
	// on that table as residual filters.
	TableScan OpType = iota
	// IndexScan performs a range scan via an index serving one predicate;
	// remaining predicates on the table are residual filters.
	IndexScan
	// NLJoin is a (block) nested-loops join.
	NLJoin
	// HashJoin builds on the right (inner) child, probes with the left.
	HashJoin
	// MergeJoin sorts both children as needed and merges.
	MergeJoin
	// HashAgg is a hash-based aggregation.
	HashAgg
	// StreamAgg is a sort-based aggregation.
	StreamAgg
)

// String returns the operator name used in plan display and fingerprints.
func (op OpType) String() string {
	switch op {
	case TableScan:
		return "TableScan"
	case IndexScan:
		return "IndexScan"
	case NLJoin:
		return "NLJoin"
	case HashJoin:
		return "HashJoin"
	case MergeJoin:
		return "MergeJoin"
	case HashAgg:
		return "HashAgg"
	case StreamAgg:
		return "StreamAgg"
	default:
		return "Op(" + strconv.Itoa(int(op)) + ")"
	}
}

// IsJoin reports whether the operator is a binary join.
func (op OpType) IsJoin() bool {
	return op == NLJoin || op == HashJoin || op == MergeJoin
}

// Node is one operator in a plan tree.
type Node struct {
	Op OpType

	// Leaf fields (TableScan, IndexScan).
	Table string
	// Index and IndexColumn identify the index and the column whose
	// predicate the index serves (IndexScan only).
	Index       string
	IndexColumn string
	// Clustered records whether Index is the clustered index.
	Clustered bool
	// ResidualPreds is the number of predicates applied as filters after
	// the access path (all table predicates for TableScan; all but the
	// served one for IndexScan).
	ResidualPreds int

	// Join fields: JoinSel is the product of the selectivities of all join
	// edges applied at this node, fixed across instances. JoinCol and
	// RightJoinCol name the equi-join key ("table.column") on the outer and
	// inner side respectively; merge join ordering depends on both.
	JoinSel      float64
	JoinCol      string
	RightJoinCol string

	// Children: nil for leaves, [outer, inner] for joins, [input] for aggs.
	Children []*Node
}

// Plan is a complete physical plan for one query template.
type Plan struct {
	Root *Node
	// TemplateName records which template the plan belongs to.
	TemplateName string

	fingerprint string
}

// New wraps a root node into a Plan and precomputes its fingerprint.
func New(templateName string, root *Node) *Plan {
	p := &Plan{Root: root, TemplateName: templateName}
	if root == nil {
		p.fingerprint = "nil"
	} else {
		// The tokens go to a stack buffer first, so the only allocation is
		// the exact-size string.
		var buf [512]byte
		p.fingerprint = string(appendFingerprint(buf[:0], root))
	}
	return p
}

// Fingerprint returns a structural identity string: two plans for the same
// template with equal fingerprints are the same physical plan.
func (p *Plan) Fingerprint() string { return p.fingerprint }

// The fingerprint grammar, written only through the Append helpers below so
// the optimizer can emit a winner's fingerprint without building its tree:
//
//	leaf := TableScan(table) | IndexScan(table:index)
//	join := Op[joinCol=rightJoinCol](outer,inner)
//	agg  := Op(input)

// AppendLeaf appends the fingerprint of a TableScan or IndexScan leaf; index
// is ignored for a TableScan.
func AppendLeaf(b []byte, op OpType, table, index string) []byte {
	b = append(b, op.String()...)
	b = append(b, '(')
	b = append(b, table...)
	if op == IndexScan {
		b = append(b, ':')
		b = append(b, index...)
	}
	return append(b, ')')
}

// AppendJoinOpen appends a join's fingerprint up to its outer input. The
// caller appends the outer input, AppendChildSep, the inner input and
// AppendClose.
func AppendJoinOpen(b []byte, op OpType, joinCol, rightJoinCol string) []byte {
	b = append(b, op.String()...)
	b = append(b, '[')
	b = append(b, joinCol...)
	b = append(b, '=')
	b = append(b, rightJoinCol...)
	return append(b, ']', '(')
}

// AppendAggOpen appends an aggregate's fingerprint up to its input. The
// caller appends the input and AppendClose.
func AppendAggOpen(b []byte, op OpType) []byte {
	b = append(b, op.String()...)
	return append(b, '(')
}

// AppendChildSep appends the separator between a join's two inputs.
func AppendChildSep(b []byte) []byte { return append(b, ',') }

// AppendClose closes a join or aggregate opened by AppendJoinOpen or
// AppendAggOpen.
func AppendClose(b []byte) []byte { return append(b, ')') }

func appendFingerprint(b []byte, n *Node) []byte {
	switch n.Op {
	case TableScan, IndexScan:
		return AppendLeaf(b, n.Op, n.Table, n.Index)
	case NLJoin, HashJoin, MergeJoin:
		b = AppendJoinOpen(b, n.Op, n.JoinCol, n.RightJoinCol)
		b = appendFingerprint(b, n.Children[0])
		b = AppendChildSep(b)
		b = appendFingerprint(b, n.Children[1])
		return AppendClose(b)
	case HashAgg, StreamAgg:
		b = AppendAggOpen(b, n.Op)
		b = appendFingerprint(b, n.Children[0])
		return AppendClose(b)
	default:
		return append(b, n.Op.String()...)
	}
}

// Tables returns the set of base tables referenced under n.
func (n *Node) Tables() []string {
	var out []string
	n.walk(func(m *Node) {
		if m.Op == TableScan || m.Op == IndexScan {
			out = append(out, m.Table)
		}
	})
	return out
}

// NumOperators returns the number of operators in the subtree.
func (n *Node) NumOperators() int {
	count := 0
	n.walk(func(*Node) { count++ })
	return count
}

func (n *Node) walk(f func(*Node)) {
	if n == nil {
		return
	}
	f(n)
	for _, c := range n.Children {
		c.walk(f)
	}
}

// String renders the plan tree as an indented outline.
func (p *Plan) String() string {
	var b strings.Builder
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		if n == nil {
			return
		}
		b.WriteString(strings.Repeat("  ", depth))
		switch n.Op {
		case TableScan:
			b.WriteString("TableScan " + n.Table)
		case IndexScan:
			b.WriteString("IndexScan " + n.Table + " via " + n.Index + "(" + n.IndexColumn + ")")
		case NLJoin, HashJoin, MergeJoin:
			b.WriteString(n.Op.String() + " on " + n.JoinCol +
				" (joinSel=" + strconv.FormatFloat(n.JoinSel, 'g', 3, 64) + ")")
		default:
			b.WriteString(n.Op.String())
		}
		b.WriteString("\n")
		for _, c := range n.Children {
			rec(c, depth+1)
		}
	}
	rec(p.Root, 0)
	return b.String()
}
