package core_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
)

// TestCertifyFacade: the facade must certify its own optimized schedule
// and the translated program must carry every step and site of the
// lowering.
func TestCertifyFacade(t *testing.T) {
	c, err := core.Compile(src, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cert, viols, err := c.Certify()
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if len(viols) != 0 {
		t.Fatalf("rejected:\n%s", certify.RenderViolations(viols))
	}
	if cert.Program != c.Prog.Name {
		t.Errorf("certificate program %q, want %q", cert.Program, c.Prog.Name)
	}
	low := c.Schedule.Lower()
	p := core.ToCertify(low)
	if len(p.Steps) != len(low.Steps) || len(p.Sites) != len(low.Sites) {
		t.Errorf("translated %d steps and %d sites, the lowering has %d and %d",
			len(p.Steps), len(p.Sites), len(low.Steps), len(low.Sites))
	}
}

// TestCompileLintOption: WithLint gates a request on a clean lint run and
// surfaces the findings as a typed error.
func TestCompileLintOption(t *testing.T) {
	params := core.WithParams(map[string]int64{"N": 16, "T": 1})
	if _, err := core.Do(context.Background(), core.NewRequest(src, core.WithLint(), params)); err != nil {
		t.Fatalf("clean program rejected by lint gate: %v", err)
	}
	bad := `
program deadstore
param N
real A(N), t
t = 1.0
t = 2.0
do i = 1, N
  A(i) = t
end do
end
`
	_, err := core.Do(context.Background(), core.NewRequest(bad, core.WithLint(), params))
	var le *core.LintError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *core.LintError", err)
	}
	if len(le.Diags) == 0 || !strings.Contains(le.Error(), "dead-store") {
		t.Errorf("lint error lacks the dead-store finding: %v", le)
	}
}
