package memo

import (
	"fmt"
	"strconv"

	"repro/internal/plan"
	"repro/internal/query"
)

// VerifyPlan checks that every field of p's nodes which the fingerprint
// does not cover holds the value the optimizer derives for it from the
// catalog and tpl: an IndexScan's index column and clustered flag, each
// scan's residual predicate count, each join's selectivity, and the zero
// value of every field that does not apply to the node's operator. Every
// leaf must scan a distinct table of tpl through an access path the
// optimizer considers.
//
// Plans from this package's optimizer always pass. A plan decoded from
// outside the process must pass before it is trusted: two plans with one
// fingerprint then have equal fields, so the fingerprint identifies the
// plan within a template. The error names the first failing node by its
// path from the root ("root", "root.0" for a join's outer input, ...) and
// the field.
func VerifyPlan(tpl *query.Template, p *plan.Plan) error {
	if p == nil || p.Root == nil {
		return fmt.Errorf("memo: verify of nil plan")
	}
	_, err := verifyNode(metaFor(tpl), p.Root, "root")
	return err
}

// verifyNode checks n's subtree and returns the mask of template tables it
// scans.
func verifyNode(m *tplMeta, n *plan.Node, path string) (uint32, error) {
	if n == nil {
		return 0, fmt.Errorf("memo: plan node %s is nil", path)
	}
	want := plan.Node{Op: n.Op}
	var mask uint32
	switch n.Op {
	case plan.TableScan, plan.IndexScan:
		ti, ok := m.tableIdx[n.Table]
		if !ok || m.tables[ti].tab == nil {
			return 0, nodeErr(path, n, "table", "is not a catalog table of the template")
		}
		mt := &m.tables[ti]
		mask = 1 << uint(ti)
		want.Table = n.Table
		want.ResidualPreds = len(mt.preds)
		if n.Op == plan.IndexScan {
			ix := mt.index(n.Index)
			if ix == nil {
				return 0, nodeErr(path, n, "index", "is not a catalog index of the table")
			}
			if len(ix.preds) == 0 && !ix.clustered {
				return 0, nodeErr(path, n, "index", "serves no predicate and is not clustered")
			}
			want.Index, want.IndexColumn, want.Clustered = ix.name, ix.column, ix.clustered
			if len(ix.preds) > 0 {
				want.ResidualPreds--
			}
		}
	case plan.NLJoin, plan.HashJoin, plan.MergeJoin:
		if len(n.Children) != 2 {
			return 0, nodeErr(path, n, "children", "count is "+strconv.Itoa(len(n.Children))+", want 2")
		}
		left, err := verifyNode(m, n.Children[0], path+".0")
		if err != nil {
			return 0, err
		}
		right, err := verifyNode(m, n.Children[1], path+".1")
		if err != nil {
			return 0, err
		}
		if left&right != 0 {
			return 0, nodeErr(path, n, "children", "scan a table twice")
		}
		mask = left | right
		want.JoinCol, want.RightJoinCol = n.JoinCol, n.RightJoinCol
		// The product runs in edge order, as in the search, so it is
		// bit-identical to the optimizer's.
		want.JoinSel = 1
		for ei := range m.edges {
			e := &m.edges[ei]
			if (left&e.aMask != 0 && right&e.bMask != 0) || (left&e.bMask != 0 && right&e.aMask != 0) {
				want.JoinSel *= e.sel
			}
		}
	case plan.HashAgg, plan.StreamAgg:
		if len(n.Children) != 1 {
			return 0, nodeErr(path, n, "children", "count is "+strconv.Itoa(len(n.Children))+", want 1")
		}
		var err error
		if mask, err = verifyNode(m, n.Children[0], path+".0"); err != nil {
			return 0, err
		}
	default:
		return 0, nodeErr(path, n, "op", "is not a plan operator")
	}
	for _, f := range [...]struct {
		name      string
		got, want any
	}{
		{"table", n.Table, want.Table},
		{"index", n.Index, want.Index},
		{"indexColumn", n.IndexColumn, want.IndexColumn},
		{"clustered", n.Clustered, want.Clustered},
		{"residualPreds", n.ResidualPreds, want.ResidualPreds},
		{"joinSel", n.JoinSel, want.JoinSel},
		{"joinCol", n.JoinCol, want.JoinCol},
		{"rightJoinCol", n.RightJoinCol, want.RightJoinCol},
	} {
		if f.got != f.want {
			return 0, nodeErr(path, n, f.name, fmt.Sprintf("is %v, want %v", f.got, f.want))
		}
	}
	return mask, nil
}

// index returns the table's metadata for the named catalog index, or nil.
func (mt *metaTable) index(name string) *metaIndex {
	for i := range mt.indexes {
		if mt.indexes[i].name == name {
			return &mt.indexes[i]
		}
	}
	return nil
}

func nodeErr(path string, n *plan.Node, field, problem string) error {
	return fmt.Errorf("memo: plan node %s (%s): %s %s", path, n.Op, field, problem)
}
