package lint

import (
	"go/ast"
	"strings"
	"testing"
)

// markAnalyzer flags every call to a function named mark; the fixture
// under testdata/src/pos drives position and suppression behavior.
var markAnalyzer = &Analyzer{
	Name: "testrule",
	Doc:  "flags calls to mark()",
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
					pass.Reportf(call.Pos(), "call to mark")
				}
				return true
			})
		}
	},
}

func loadPosFixture(t *testing.T) []*Package {
	t.Helper()
	loader, err := NewFixtureLoader("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("pos")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "pos" {
		t.Fatalf("Load(pos) = %v, want one package with path pos", pkgs)
	}
	return pkgs
}

// TestPositionsAndSuppression pins down the full Run contract on the pos
// fixture: base-relative slash paths, exact line/column positions, sorted
// output, //lint:ignore honored on the same line and the line above, and
// a malformed directive surfacing as a "lint" finding.
func TestPositionsAndSuppression(t *testing.T) {
	pkgs := loadPosFixture(t)
	findings := Run(pkgs, []*Analyzer{markAnalyzer})

	// mark() sites: line 8 (reported), 13 (suppressed from line 12), 14
	// (suppressed same-line), 15 (reported), 20 (reported: the directive
	// on line 18 is malformed and must not suppress anything).
	type pl struct {
		rule string
		line int
	}
	var got []pl
	for _, f := range findings {
		if f.File != "pos/pos.go" {
			t.Errorf("finding file = %q, want pos/pos.go (BaseDir-relative, slash-separated)", f.File)
		}
		got = append(got, pl{f.Rule, f.Line})
	}
	want := []pl{{"testrule", 8}, {"testrule", 15}, {"lint", 18}, {"testrule", 20}}
	if len(got) != len(want) {
		t.Fatalf("findings = %v, want %v", findings, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding[%d] = %v, want %v (output must be position-sorted)", i, got[i], want[i])
		}
	}

	// Column of the first mark() call: a tab then the call.
	if findings[0].Column != 2 {
		t.Errorf("finding[0].Column = %d, want 2", findings[0].Column)
	}
	if s := findings[0].String(); s != "pos/pos.go:8:2: call to mark [testrule]" {
		t.Errorf("String() = %q", s)
	}
}

// TestMalformedDirectiveMessage checks the lint pseudo-finding's shape.
func TestMalformedDirectiveMessage(t *testing.T) {
	pkgs := loadPosFixture(t)
	findings := Run(pkgs, []*Analyzer{markAnalyzer})
	found := false
	for _, f := range findings {
		if f.Rule == "lint" {
			found = true
			if f.Line != 18 {
				t.Errorf("malformed directive reported at line %d, want 18", f.Line)
			}
		}
	}
	if !found {
		t.Error("malformed //lint:ignore (no rule/reason) was not reported")
	}
}

// TestIgnoreDoesNotCrossRules checks a directive only silences the rules
// it names: the directives in pos name testrule, so a different analyzer
// reporting on the same lines is unaffected.
func TestIgnoreDoesNotCrossRules(t *testing.T) {
	other := &Analyzer{Name: "otherrule", Doc: "same detection, different name", Run: markAnalyzer.Run}
	pkgs := loadPosFixture(t)
	findings := Run(pkgs, []*Analyzer{other})
	lines := map[int]bool{}
	for _, f := range findings {
		if f.Rule == "otherrule" {
			lines[f.Line] = true
		}
	}
	for _, line := range []int{8, 13, 14, 15, 20} {
		if !lines[line] {
			t.Errorf("otherrule finding at line %d was suppressed by a testrule directive", line)
		}
	}
}

// TestFindingKey pins the baseline key format: position-independent.
func TestFindingKey(t *testing.T) {
	f := Finding{Rule: "r", File: "a/b.go", Line: 3, Column: 9, Message: "m"}
	g := Finding{Rule: "r", File: "a/b.go", Line: 99, Column: 1, Message: "m"}
	if f.Key() != g.Key() {
		t.Errorf("keys differ across positions: %q vs %q", f.Key(), g.Key())
	}
	if f.Key() != "r\ta/b.go\tm" {
		t.Errorf("Key() = %q, want rule<TAB>file<TAB>message", f.Key())
	}
}

// TestLoadSkipsNestedModules checks that ./... stops at a directory with
// its own go.mod, as the go tool does: testdata/mod holds module
// example.com/outer with a nested module under nested/.
func TestLoadSkipsNestedModules(t *testing.T) {
	loader, err := NewModuleLoader("testdata/mod", false)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	want := []string{"example.com/outer", "example.com/outer/sub"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Load(./...) = %v, want %v", got, want)
	}
}
