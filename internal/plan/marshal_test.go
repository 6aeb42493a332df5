package plan

import (
	"encoding/json"
	"strings"
	"testing"
)

func samplePlan() *Plan {
	return New("q", &Node{
		Op: HashAgg,
		Children: []*Node{{
			Op: MergeJoin, JoinCol: "a.x", RightJoinCol: "b.y", JoinSel: 0.001,
			Children: []*Node{
				{Op: IndexScan, Table: "a", Index: "ixa", IndexColumn: "x", Clustered: true, ResidualPreds: 1},
				{Op: TableScan, Table: "b", ResidualPreds: 2},
			},
		}},
	})
}

func TestPlanJSONRoundTrip(t *testing.T) {
	p := samplePlan()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != p.Fingerprint() {
		t.Errorf("fingerprint changed across round trip:\n  %s\n  %s",
			p.Fingerprint(), back.Fingerprint())
	}
	if back.TemplateName != "q" {
		t.Errorf("template name = %q", back.TemplateName)
	}
	// Field-level fidelity for the fields recost depends on.
	mj := back.Root.Children[0]
	if mj.JoinSel != 0.001 || mj.RightJoinCol != "b.y" {
		t.Errorf("merge join fields lost: %+v", mj)
	}
	leaf := mj.Children[0]
	if !leaf.Clustered || leaf.ResidualPreds != 1 || leaf.IndexColumn != "x" {
		t.Errorf("index scan fields lost: %+v", leaf)
	}
}

func TestUnmarshalPlanErrors(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"garbage", "{", "unmarshal"},
		{"unknown op", `{"template":"q","root":{"op":"Nope"}}`, "unknown operator"},
		{"join arity", `{"template":"q","root":{"op":"HashJoin","children":[{"op":"TableScan","table":"a"}]}}`, "children"},
		{"agg arity", `{"template":"q","root":{"op":"HashAgg"}}`, "children"},
		{"leaf with children", `{"template":"q","root":{"op":"TableScan","table":"a","children":[{"op":"TableScan","table":"b"}]}}`, "children"},
		{"null child", `{"template":"q","root":{"op":"HashJoin","children":[null,{"op":"TableScan","table":"b"}]}}`, "null child"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := UnmarshalPlan([]byte(tc.data))
			if err == nil {
				t.Fatalf("UnmarshalPlan succeeded, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestMarshalNilRoot(t *testing.T) {
	p := New("q", nil)
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Root != nil {
		t.Error("nil root should round trip to nil")
	}
}
