// Package lintutil is the shared plumbing of the pqolint analyzers: the
// `//lint:allow <analyzer> <reason>` suppression convention and
// package-scope gating (see docs/LINT.md). Control flow lives in ssalite.
package lintutil

import (
	"go/token"
	"os"
	"strings"
	"sync"

	"golang.org/x/tools/go/analysis"
)

// allowPrefix introduces a suppression comment:
//
//	//lint:allow <analyzer>[,<analyzer>...] <reason>
//
// The comment suppresses matching diagnostics reported on its own line and
// on the line directly below it (so it works both as a trailing comment and
// as a standalone comment above the flagged statement). The reason is
// mandatory: an allow without one is itself reported, so every intentional
// invariant violation stays auditable.
const allowPrefix = "//lint:allow"

// allowRecord is one analyzer name an allow comment suppresses, together
// with the recorded reason.
type allowRecord struct {
	Name   string
	Reason string
}

// AllowSpec is one parsed //lint:allow comment: the analyzer names it
// suppresses and the mandatory reason (empty when the comment is
// malformed).
type AllowSpec struct {
	Names  []string
	Reason string
}

// ParseAllow parses a comment's text as a lint:allow comment. ok is false
// when the comment is not an allow comment or names no analyzer. A spec
// with an empty Reason is malformed: analyzers report it via
// ReportAllowMisuse, and pqolint -allows lists it as an audit error.
func ParseAllow(text string) (spec AllowSpec, ok bool) {
	if !strings.HasPrefix(text, allowPrefix) {
		return AllowSpec{}, false
	}
	fields := strings.Fields(strings.TrimPrefix(text, allowPrefix))
	if len(fields) == 0 {
		return AllowSpec{}, false
	}
	spec.Names = strings.Split(fields[0], ",")
	spec.Reason = strings.Join(fields[1:], " ")
	return spec, true
}

// allowTable indexes the suppression comments of one package.
type allowTable struct {
	// lines maps file name → line → suppressions active there.
	lines map[string]map[int][]allowRecord
	// malformed holds positions of allow comments with no reason, keyed by
	// the analyzer names they mention.
	malformed map[string][]token.Pos
}

var (
	tablesMu sync.Mutex
	tables   = map[*analysis.Pass]*allowTable{}
)

func allowsFor(pass *analysis.Pass) *allowTable {
	tablesMu.Lock()
	defer tablesMu.Unlock()
	if t, ok := tables[pass]; ok {
		return t
	}
	t := &allowTable{
		lines:     map[string]map[int][]allowRecord{},
		malformed: map[string][]token.Pos{},
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				spec, ok := ParseAllow(c.Text)
				if !ok {
					continue // not an allow, or bare "//lint:allow"
				}
				if spec.Reason == "" {
					for _, n := range spec.Names {
						t.malformed[n] = append(t.malformed[n], c.Pos())
					}
					continue
				}
				p := pass.Fset.Position(c.Pos())
				m := t.lines[p.Filename]
				if m == nil {
					m = map[int][]allowRecord{}
					t.lines[p.Filename] = m
				}
				for _, n := range spec.Names {
					rec := allowRecord{Name: n, Reason: spec.Reason}
					m[p.Line] = append(m[p.Line], rec)
					m[p.Line+1] = append(m[p.Line+1], rec)
				}
			}
		}
	}
	tables[pass] = t
	return t
}

// SuppressedPrefix marks diagnostics that a //lint:allow comment matched:
// they are emitted (instead of dropped) only when EmitSuppressed is set,
// so pqolint -json can list intentional violations alongside real ones.
// The text inside the brackets after the colon is the recorded reason.
const SuppressedPrefix = "[suppressed:"

// EmitSuppressed reports whether suppressed diagnostics should be emitted
// with SuppressedPrefix rather than dropped. pqolint -json sets the
// environment variable so its report can include intentional violations.
func EmitSuppressed() bool {
	return os.Getenv("PQOLINT_EMIT_SUPPRESSED") == "1"
}

// Report files a diagnostic for pass's analyzer at pos unless a matching
// //lint:allow comment suppresses it. Under EmitSuppressed a suppressed
// diagnostic is emitted anyway, tagged with SuppressedPrefix and the
// allow's reason.
func Report(pass *analysis.Pass, pos token.Pos, format string, args ...any) {
	t := allowsFor(pass)
	p := pass.Fset.Position(pos)
	for _, rec := range t.lines[p.Filename][p.Line] {
		if rec.Name == pass.Analyzer.Name {
			if EmitSuppressed() {
				pass.Reportf(pos, SuppressedPrefix+"%s] "+format, append([]any{rec.Reason}, args...)...)
			}
			return
		}
	}
	pass.Reportf(pos, format, args...)
}

// Allowed reports whether an //lint:allow comment for analyzer name
// covers pos. Analyzers use it to prune whole declarations (e.g. hotalloc
// skips a function whose decl carries an allow).
func Allowed(pass *analysis.Pass, pos token.Pos, name string) bool {
	t := allowsFor(pass)
	p := pass.Fset.Position(pos)
	for _, rec := range t.lines[p.Filename][p.Line] {
		if rec.Name == name {
			return true
		}
	}
	return false
}

// ReportAllowMisuse files a diagnostic for every //lint:allow comment that
// names pass's analyzer but carries no reason. Each analyzer calls this once
// so that reason-less suppressions of its name are caught exactly once.
func ReportAllowMisuse(pass *analysis.Pass) {
	t := allowsFor(pass)
	for _, pos := range t.malformed[pass.Analyzer.Name] {
		pass.Reportf(pos, "lint:allow %s needs a reason: //lint:allow %s <why>", pass.Analyzer.Name, pass.Analyzer.Name)
	}
}

// InTestFile reports whether pos lies in a _test.go file.
func InTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.File(pos).Name(), "_test.go")
}

// PkgInScope reports whether the package path has any of the given path
// segments (e.g. "memo" matches repro/internal/memo). Analyzer fixtures use
// bare segment paths, so a full-path suffix match is also accepted.
func PkgInScope(path string, segments []string) bool {
	parts := strings.Split(path, "/")
	for _, want := range segments {
		for _, p := range parts {
			if p == want {
				return true
			}
		}
	}
	return false
}
