package plan

import (
	"encoding/json"
	"fmt"
)

// nodeJSON is the serialized form of a Node. Children are nested, matching
// the tree structure.
type nodeJSON struct {
	Op            string      `json:"op"`
	Table         string      `json:"table,omitempty"`
	Index         string      `json:"index,omitempty"`
	IndexColumn   string      `json:"indexColumn,omitempty"`
	Clustered     bool        `json:"clustered,omitempty"`
	ResidualPreds int         `json:"residualPreds,omitempty"`
	JoinSel       float64     `json:"joinSel,omitempty"`
	JoinCol       string      `json:"joinCol,omitempty"`
	RightJoinCol  string      `json:"rightJoinCol,omitempty"`
	Children      []*nodeJSON `json:"children,omitempty"`
}

type planJSON struct {
	TemplateName string    `json:"template"`
	Root         *nodeJSON `json:"root"`
}

// opNames maps operator codes to their stable serialized names.
var opNames = map[OpType]string{
	TableScan: "TableScan", IndexScan: "IndexScan",
	NLJoin: "NLJoin", HashJoin: "HashJoin", MergeJoin: "MergeJoin",
	HashAgg: "HashAgg", StreamAgg: "StreamAgg",
}

var opCodes = func() map[string]OpType {
	m := make(map[string]OpType, len(opNames))
	for k, v := range opNames {
		m[v] = k
	}
	return m
}()

// MarshalJSON serializes the plan tree.
func (p *Plan) MarshalJSON() ([]byte, error) {
	root, err := nodeToJSON(p.Root)
	if err != nil {
		return nil, err
	}
	return json.Marshal(planJSON{TemplateName: p.TemplateName, Root: root})
}

func nodeToJSON(n *Node) (*nodeJSON, error) {
	if n == nil {
		return nil, nil
	}
	name, ok := opNames[n.Op]
	if !ok {
		return nil, fmt.Errorf("plan: cannot serialize operator %v", n.Op)
	}
	out := &nodeJSON{
		Op: name, Table: n.Table, Index: n.Index, IndexColumn: n.IndexColumn,
		Clustered: n.Clustered, ResidualPreds: n.ResidualPreds,
		JoinSel: n.JoinSel, JoinCol: n.JoinCol, RightJoinCol: n.RightJoinCol,
	}
	for _, c := range n.Children {
		cj, err := nodeToJSON(c)
		if err != nil {
			return nil, err
		}
		out.Children = append(out.Children, cj)
	}
	return out, nil
}

// UnmarshalPlan deserializes a plan produced by MarshalJSON, recomputing
// the fingerprint.
func UnmarshalPlan(data []byte) (*Plan, error) {
	var pj planJSON
	if err := json.Unmarshal(data, &pj); err != nil {
		return nil, fmt.Errorf("plan: unmarshal: %w", err)
	}
	root, err := nodeFromJSON(pj.Root)
	if err != nil {
		return nil, err
	}
	return New(pj.TemplateName, root), nil
}

func nodeFromJSON(nj *nodeJSON) (*Node, error) {
	if nj == nil {
		return nil, nil
	}
	op, ok := opCodes[nj.Op]
	if !ok {
		return nil, fmt.Errorf("plan: unknown operator %q", nj.Op)
	}
	n := &Node{
		Op: op, Table: nj.Table, Index: nj.Index, IndexColumn: nj.IndexColumn,
		Clustered: nj.Clustered, ResidualPreds: nj.ResidualPreds,
		JoinSel: nj.JoinSel, JoinCol: nj.JoinCol, RightJoinCol: nj.RightJoinCol,
	}
	wantChildren := 0
	switch {
	case op.IsJoin():
		wantChildren = 2
	case op == HashAgg || op == StreamAgg:
		wantChildren = 1
	}
	if len(nj.Children) != wantChildren {
		return nil, fmt.Errorf("plan: operator %s has %d children, want %d",
			nj.Op, len(nj.Children), wantChildren)
	}
	for _, cj := range nj.Children {
		if cj == nil {
			return nil, fmt.Errorf("plan: operator %s has a null child", nj.Op)
		}
		c, err := nodeFromJSON(cj)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}
