package engine_test

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/plan"
	"repro/internal/suite"
)

// suiteEngine returns an engine for the named suite template.
func suiteEngine(t *testing.T, name string) *engine.TemplateEngine {
	t.Helper()
	sys, err := suite.NewSystems(1)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := suite.Build(sys)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Tpl.Name == name {
			eng, err := e.Sys.EngineFor(e.Tpl)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		}
	}
	t.Fatalf("no suite template %s", name)
	return nil
}

// editFirst applies edit to the nodes of n in pre-order until one reports
// that it changed something, and returns the changed node's path.
func editFirst(n *plan.Node, path string, edit func(*plan.Node) bool) (string, bool) {
	if edit(n) {
		return path, true
	}
	for i, c := range n.Children {
		if p, ok := editFirst(c, path+"."+strconv.Itoa(i), edit); ok {
			return p, true
		}
	}
	return "", false
}

// TestRehydrateRejectsFieldsOutsideFingerprint: a snapshot plan whose
// fields disagree with the catalog and template keeps its fingerprint, so
// SCR would take it for the optimizer's plan. Rehydrate must reject it,
// naming the node and the field. The clustered case is the reproduction:
// dropping one clustered flag from tpch_li_ord_00's plan at sv = 0.01 made
// a plan that recosts to 31 times the optimum.
func TestRehydrateRejectsFieldsOutsideFingerprint(t *testing.T) {
	eng := suiteEngine(t, "tpch_li_ord_00")
	sv := make([]float64, eng.Dimensions())
	for i := range sv {
		sv[i] = 0.01
	}
	cp, _, err := eng.Optimize(sv)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cp.Plan)
	if err != nil {
		t.Fatal(err)
	}
	isScan := func(n *plan.Node) bool { return n.Op == plan.TableScan || n.Op == plan.IndexScan }
	for _, tc := range []struct {
		field string
		edit  func(*plan.Node) bool
	}{
		{"clustered", func(n *plan.Node) bool {
			if n.Op == plan.IndexScan && n.Clustered {
				n.Clustered = false
				return true
			}
			return false
		}},
		{"indexColumn", func(n *plan.Node) bool {
			if n.Op == plan.IndexScan {
				n.IndexColumn += "_x"
				return true
			}
			return false
		}},
		{"residualPreds", func(n *plan.Node) bool {
			if isScan(n) {
				n.ResidualPreds++
				return true
			}
			return false
		}},
		{"joinSel", func(n *plan.Node) bool {
			if n.Op.IsJoin() {
				n.JoinSel *= 2
				return true
			}
			return false
		}},
	} {
		t.Run(tc.field, func(t *testing.T) {
			p, err := plan.UnmarshalPlan(raw)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Rehydrate(p); err != nil {
				t.Fatalf("unedited plan rejected: %v", err)
			}
			path, ok := editFirst(p.Root, "root", tc.edit)
			if !ok {
				t.Fatalf("plan has no node to edit:\n%s", p)
			}
			// Round-trip the edit through JSON, as a snapshot would carry it.
			edited, err := json.Marshal(p)
			if err != nil {
				t.Fatal(err)
			}
			if p, err = plan.UnmarshalPlan(edited); err != nil {
				t.Fatal(err)
			}
			if p.Fingerprint() != cp.Fingerprint() {
				t.Fatalf("edit changed the fingerprint; the case tests nothing")
			}
			_, err = eng.Rehydrate(p)
			if err == nil {
				t.Fatalf("Rehydrate accepted a plan with a wrong %s at %s", tc.field, path)
			}
			if msg := err.Error(); !strings.Contains(msg, "node "+path+" ") || !strings.Contains(msg, tc.field) {
				t.Errorf("error %q does not name node %s and field %s", msg, path, tc.field)
			}
		})
	}
}
