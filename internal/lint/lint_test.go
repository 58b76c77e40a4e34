package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/suite"
)

var update = flag.Bool("update", false, "rewrite golden files")

func readFixture(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGoldenFixtures asserts the rendered diagnostics for the negative
// fixtures byte-for-byte against their golden files.
func TestGoldenFixtures(t *testing.T) {
	for _, f := range []string{"lint_oob", "lint_uninit", "lint_dead", "lint_indirect"} {
		t.Run(f, func(t *testing.T) {
			src := readFixture(t, f+".dsl")
			got := lint.Render(f+".dsl", lint.Source(src))
			goldenPath := filepath.Join("..", "..", "testdata", f+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("diagnostics differ from golden\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// TestFixturesHaveFindings: every negative fixture must trip the exit-code
// convention (at least one warning or error).
func TestFixturesHaveFindings(t *testing.T) {
	for _, f := range []string{"lint_oob.dsl", "lint_uninit.dsl", "lint_dead.dsl",
		"lint_indirect.dsl", "bad_syntax.dsl", "bad_semantics.dsl"} {
		if !lint.HasFindings(lint.Source(readFixture(t, f))) {
			t.Errorf("%s: expected findings, got none", f)
		}
	}
}

// TestSuiteKernelsClean: the 16 suite kernels may produce informational
// notes but no warnings or errors — they must lint with exit code 0.
func TestSuiteKernelsClean(t *testing.T) {
	for _, k := range suite.Kernels() {
		diags := lint.Source(k.Source)
		if lint.HasFindings(diags) {
			t.Errorf("kernel %s has lint findings:\n%s", k.Name, lint.Render(k.Name, diags))
		}
	}
}

// TestIrregularKernelsClean: the irregular-suite kernels communicate
// entirely through index arrays, but every index array is built in a
// guarded setup prefix the irregular value analysis freezes — so the
// non-affine-subscript diagnostics all downgrade to infos and the
// kernels lint with exit code 0.
func TestIrregularKernelsClean(t *testing.T) {
	for _, k := range suite.IrregularKernels() {
		diags := lint.Source(k.Source)
		if lint.HasFindings(diags) {
			t.Errorf("kernel %s has lint findings:\n%s", k.Name, lint.Render(k.Name, diags))
		}
		recovered := 0
		for _, d := range diags {
			if d.Rule == "non-affine-subscript" && d.Severity == lint.SevInfo {
				recovered++
			}
		}
		if recovered == 0 {
			t.Errorf("kernel %s: no recovered non-affine-subscript infos (downgrade never fired)", k.Name)
		}
	}
}

// TestNonAffineDedup: a statement naming the same non-affine subscript on
// both sides reports it once per (statement, array, dim), anchored at the
// innermost offending subexpression; the same subscript in a different
// statement reports again.
func TestNonAffineDedup(t *testing.T) {
	src := `
program dedup
param N
real A(N), B(N), q(N)
parallel do i = 1, N
  q(i) = N - i + 1.0
end do
do t = 1, 3
  parallel do i = 1, N
    B(q(i)) = A(i) + B(q(i)) + B(q(i))
  end do
  parallel do i = 1, N
    A(i) = B(q(i))
  end do
end do
end
`
	var warns []lint.Diagnostic
	for _, d := range lint.Source(src) {
		if d.Rule == "non-affine-subscript" {
			warns = append(warns, d)
		}
	}
	if len(warns) != 2 {
		t.Fatalf("want 2 deduplicated warnings (one per statement), got %d:\n%s",
			len(warns), lint.Render("dedup", warns))
	}
	for _, d := range warns {
		if !strings.Contains(d.Msg, "(q(i))") {
			t.Errorf("warning not anchored at the innermost offender: %s", d.Msg)
		}
	}
}

// TestGoodTestdataClean: the positive DSL fixtures lint clean.
func TestGoodTestdataClean(t *testing.T) {
	for _, f := range []string{"heat1d.dsl", "sweep.dsl", "blocked_smooth.dsl"} {
		diags := lint.Source(readFixture(t, f))
		if lint.HasFindings(diags) {
			t.Errorf("%s has lint findings:\n%s", f, lint.Render(f, diags))
		}
	}
}

// TestSyntaxAndSemanticsDiags: parse and validation failures surface as
// positioned error diagnostics, not Go errors.
func TestSyntaxAndSemanticsDiags(t *testing.T) {
	cases := []struct {
		file, rule string
	}{
		{"bad_syntax.dsl", "syntax"},
		{"bad_semantics.dsl", "semantics"},
	}
	for _, tc := range cases {
		diags := lint.Source(readFixture(t, tc.file))
		if len(diags) == 0 {
			t.Errorf("%s: no diagnostics", tc.file)
			continue
		}
		for _, d := range diags {
			if d.Severity != lint.SevError {
				t.Errorf("%s: severity %v, want error", tc.file, d.Severity)
			}
			if d.Rule != tc.rule {
				t.Errorf("%s: rule %q, want %q", tc.file, d.Rule, tc.rule)
			}
			if d.P.Line == 0 {
				t.Errorf("%s: diagnostic %q has no source position", tc.file, d.Msg)
			}
		}
	}
}

// TestAllDiagnosticsPositioned: every diagnostic across all fixtures
// carries a source position.
func TestAllDiagnosticsPositioned(t *testing.T) {
	files := []string{"lint_oob.dsl", "lint_uninit.dsl", "lint_dead.dsl",
		"heat1d.dsl", "sweep.dsl", "blocked_smooth.dsl"}
	for _, f := range files {
		for _, d := range lint.Source(readFixture(t, f)) {
			if d.P.Line == 0 {
				t.Errorf("%s: diagnostic %q [%s] has no position", f, d.Msg, d.Rule)
			}
		}
	}
	for _, k := range suite.Kernels() {
		for _, d := range lint.Source(k.Source) {
			if d.P.Line == 0 {
				t.Errorf("kernel %s: diagnostic %q [%s] has no position", k.Name, d.Msg, d.Rule)
			}
		}
	}
}

// TestGuardPrecision: an access provably safe only because of its guard
// must not be flagged (FM must use the guard constraints).
func TestGuardPrecision(t *testing.T) {
	src := `
program guarded
param N
real A(N)
do i = 1, N
  if i >= 2 then
    A(i - 1) = A(i)
  end if
end do
end
`
	for _, d := range lint.Source(src) {
		if d.Rule == "out-of-bounds" {
			t.Errorf("guarded access flagged: %s", d.Msg)
		}
	}
}

// TestElseBranchNegation: the else branch of a single-comparison guard
// carries the negated constraint, so an access safe only there is clean
// and an access unsafe only there is flagged.
func TestElseBranchNegation(t *testing.T) {
	src := `
program elseneg
param N
real A(N)
do i = 1, N
  if i <= 1 then
    A(i) = 0.0
  else
    A(i - 1) = 1.0
  end if
end do
end
`
	for _, d := range lint.Source(src) {
		if d.Rule == "out-of-bounds" {
			t.Errorf("else-branch access flagged despite negated guard: %s", d.Msg)
		}
	}
}

// TestOverflowingSubscriptGetsNoPoint: with a coefficient of 2^62 the
// violation system overflows int64 inside the enumeration box (3 * 2^62 wraps
// negative). FM gives up (Unknown), and the enumerator must report its
// result unusable rather than hand over the wrapped point "N=3, i=3, j=1"
// as a subscript that "evaluates to -4611686018427387903, below 1".
func TestOverflowingSubscriptGetsNoPoint(t *testing.T) {
	src := `
program wrap
param N
real A(N), B(N)
do i = 3, N
  do j = 1, N
    B(j) = A(4611686018427387904 * i + j)
  end do
end do
end
`
	warned := false
	for _, d := range lint.Source(src) {
		if d.Rule != "out-of-bounds" {
			continue
		}
		if strings.Contains(d.Msg, "evaluates to") {
			t.Errorf("concrete point from overflowed arithmetic: %s", d.Msg)
		}
		if d.Severity == lint.SevWarning && strings.Contains(d.Msg, "may fall below 1") {
			warned = true
		}
	}
	if !warned {
		t.Error("want the no-witness warning \"may fall below 1\" for the undecided violation")
	}
}
