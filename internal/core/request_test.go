package core

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/profile"
)

const reqSrc = `
program reqtest
param N, T
real A(N), B(N)
do k = 1, T
  do i = 2, N - 1
    B(i) = 0.5 * (A(i - 1) + A(i + 1))
  end do
  do i = 2, N - 1
    A(i) = B(i)
  end do
end do
end
`

var reqParams = map[string]int64{"N": 64, "T": 4}

func TestNewRequestOptions(t *testing.T) {
	req := NewRequest(reqSrc,
		WithLint(), WithCertify(), WithWorkers(4),
		WithTrace(), WithReport(), WithParams(reqParams))
	if !req.Compile.Lint || !req.Compile.Certify {
		t.Fatal("compile options not applied")
	}
	if req.Run.P != 4 || !req.Run.Trace || !req.Run.Report || req.Run.Params["N"] != 64 {
		t.Fatalf("run options not applied: %+v", req.Run)
	}
}

func TestDoBasic(t *testing.T) {
	res, err := Do(context.Background(),
		NewRequest(reqSrc, WithWorkers(4), WithParams(reqParams), WithCertify()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Runner == nil {
		t.Fatal("Result.Runner not set")
	}
	if !res.Certify.Certified {
		t.Fatal("schedule not certified")
	}
	if res.TracingForced || res.Profile != nil || res.Report != nil || res.FDO != nil {
		t.Fatalf("unrequested extras set: forced=%v profile=%v report=%v fdo=%v",
			res.TracingForced, res.Profile != nil, res.Report != nil, res.FDO != nil)
	}
}

// TestDoForcesTracing pins the tracing_forced contract: Profile/Report
// force tracing and the result says so; an explicit Trace does not count
// as forced.
func TestDoForcesTracing(t *testing.T) {
	res, err := Do(context.Background(),
		NewRequest(reqSrc, WithWorkers(2), WithParams(reqParams), withProfile, WithReport()))
	if err != nil {
		t.Fatal(err)
	}
	if !res.TracingForced {
		t.Fatal("Profile+Report must force tracing and report it")
	}
	if res.Profile == nil || len(res.Profile.Sites) == 0 {
		t.Fatal("Result.Profile not assembled")
	}
	if res.Report == nil {
		t.Fatal("Result.Report not assembled")
	}
	if res.Profile.ScheduleHash != res.Runner.ScheduleHash() {
		t.Fatal("profile identity hash disagrees with runner")
	}

	res2, err := Do(context.Background(),
		NewRequest(reqSrc, WithWorkers(2), WithParams(reqParams), WithTrace(), withProfile))
	if err != nil {
		t.Fatal(err)
	}
	if res2.TracingForced {
		t.Fatal("explicit Trace must not be reported as forced")
	}
}

// TestDoFDORoundTrip drives the full feedback loop through the typed API:
// profile a run, feed the profile back, and require the second run to
// execute a re-optimized (or at worst identical) schedule that still
// verifies and certifies.
func TestDoFDORoundTrip(t *testing.T) {
	first, err := Do(context.Background(),
		NewRequest(reqSrc, WithWorkers(4), WithParams(reqParams), withProfile))
	if err != nil {
		t.Fatal(err)
	}
	second, err := Do(context.Background(),
		NewRequest(reqSrc, WithWorkers(4), WithParams(reqParams), WithCertify(),
			WithFDOProfile(first.Profile)))
	if err != nil {
		t.Fatal(err)
	}
	if second.FDO == nil {
		t.Fatal("Result.FDO not set on a -profile-in style run")
	}
	if !second.Certify.Certified {
		t.Fatal("re-optimized schedule lost certification")
	}

	// A stale profile (different program) must be a typed hash mismatch.
	_, err = Do(context.Background(),
		NewRequest(strings.Replace(reqSrc, "0.5", "0.25", 1),
			WithWorkers(4), WithParams(reqParams),
			WithFDOProfile(first.Profile)))
	if !errors.Is(err, profile.ErrHashMismatch) {
		t.Fatalf("stale profile error = %v, want profile.ErrHashMismatch", err)
	}

	// A chaos-perturbed profile must be a typed incompatibility.
	chaotic := *first.Profile
	chaotic.ChaosSeed = 7
	_, err = Do(context.Background(),
		NewRequest(reqSrc, WithWorkers(4), WithParams(reqParams),
			WithFDOProfile(&chaotic)))
	if !errors.Is(err, profile.ErrIncompatible) {
		t.Fatalf("chaos profile error = %v, want profile.ErrIncompatible", err)
	}
}

// TestNarrowedProfileIsLabelled: a runner narrowed to one worker stamps its
// profile and report with the width its runs leased, not P, and the
// feedback pass refuses the profile (a one-worker run waits on nobody).
func TestNarrowedProfileIsLabelled(t *testing.T) {
	c, err := Compile(reqSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewRunner(exec.Config{Workers: 2, Params: map[string]int64{"N": 64, "T": 3000},
		Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.Width() != 1 {
		t.Fatalf("width %v, want a runner narrowed to 1", r.WidthDecision())
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	prof := r.Profile(res)
	if prof.Workers != 1 || r.SyncReport(res).Workers != 1 {
		t.Fatalf("profile workers %d, report workers %d: want the leased width 1",
			prof.Workers, r.SyncReport(res).Workers)
	}
	if _, _, err := c.Reoptimize(prof); !errors.Is(err, profile.ErrIncompatible) {
		t.Fatalf("one-worker profile error = %v, want profile.ErrIncompatible", err)
	}
}

// TestProfileAndReportAgree runs one Do that asks for both the profile and
// the report: both are read off the run's one site join, so every kept
// site's profile record has the report row's wait count and ops.
func TestProfileAndReportAgree(t *testing.T) {
	for _, baseline := range []bool{false, true} {
		req := NewRequest(reqSrc, WithWorkers(4), WithParams(reqParams), WithReport())
		req.Run.Profile = true
		req.Run.Baseline = baseline
		res, err := Do(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.join == nil {
			t.Fatal("Do built a profile and a report without a site join")
		}
		waited := 0
		for _, row := range res.Report.Rows {
			rt := row.Runtime
			sp := res.Profile.Site(row.Remark.Site)
			if sp == nil {
				if rt.Waits != 0 || rt.Ops() != 0 {
					t.Errorf("baseline=%v site %d: report row %+v, no profile record", baseline, row.Remark.Site, rt)
				}
				continue
			}
			if sp.Wait.Count != rt.Waits || sp.Ops != rt.Ops() {
				t.Errorf("baseline=%v site %d: profile waits=%d ops=%d, report waits=%d ops=%d",
					baseline, sp.Site, sp.Wait.Count, sp.Ops, rt.Waits, rt.Ops())
			}
			if rt.Waits > 0 {
				waited++
			}
		}
		if waited == 0 {
			t.Errorf("baseline=%v: no kept site waited", baseline)
		}
	}
}

// coreAPI is the locked exported surface of this package: every exported
// top-level identifier and every exported method on an exported receiver.
// A change here is an API change — extend deliberately, never silently.
// Regenerate with: go test ./internal/core -run TestAPISurface -v (the
// failure message prints the actual surface).
var coreAPI = []string{
	"CertifyError",
	"CertifyOptions (Compiled)",
	"Compile",
	"CompileOptions",
	"CompileProgram",
	"Compiled",
	"Compiled (Runner)",
	"Do",
	"Error (CertifyError)",
	"Error (LintError)",
	"LedgerRecord (Result)",
	"LintError",
	"NewBaselineRunner (Compiled)",
	"NewRequest",
	"NewRunner (Compiled)",
	"Options",
	"Profile (Runner)",
	"ProgramHash (Compiled)",
	"Remarks (Compiled)",
	"Remarks (Runner)",
	"Reoptimize (Compiled)",
	"Request",
	"RequestOption",
	"Result",
	"Run (Runner)",
	"RunContext (Runner)",
	"RunOptions",
	"RunSequential (Compiled)",
	"Runner",
	"ScheduleHash (Compiled)",
	"ScheduleHash (Runner)",
	"SyncReport (Runner)",
	"ToCertify",
	"Verdict",
	"Verdict (Compiled)",
	"WithCertify",
	"WithFDOProfile",
	"WithLint",
	"WithParams",
	"WithReport",
	"WithSpans",
	"WithTrace",
	"WithWorkers",
	"Exe (Compiled)",
}

// coreKnobs are the exported fields of the option structs: every settable
// compile- and run-time value of the facade. A knob added here is an API
// change too.
var coreKnobs = []string{
	"CompileOptions.Certify",
	"CompileOptions.FDOProfile",
	"CompileOptions.Lint",
	"Options.Decomp",
	"Options.Sync",
	"RunOptions.Barrier",
	"RunOptions.Baseline",
	"RunOptions.ChaosSeed",
	"RunOptions.P",
	"RunOptions.Params",
	"RunOptions.Profile",
	"RunOptions.Report",
	"RunOptions.Sabotage",
	"RunOptions.Sanitize",
	"RunOptions.Spans",
	"RunOptions.Trace",
}

// TestAPISurface locks the package's exported API: additions, removals and
// renames must update coreAPI (and the docs) in the same change. It also
// locks the option structs' fields against coreKnobs.
func TestAPISurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got, knobs []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					if d.Recv == nil {
						got = append(got, d.Name.Name)
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					id, ok := recv.(*ast.Ident)
					if !ok || !id.IsExported() {
						continue
					}
					got = append(got, d.Name.Name+" ("+id.Name+")")
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() {
								got = append(got, s.Name.Name)
							}
							if st, ok := s.Type.(*ast.StructType); ok && strings.HasSuffix(s.Name.Name, "Options") {
								for _, f := range st.Fields.List {
									for _, n := range f.Names {
										if n.IsExported() {
											knobs = append(knobs, s.Name.Name+"."+n.Name)
										}
									}
								}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.IsExported() {
									got = append(got, n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	want := append([]string(nil), coreAPI...)
	sort.Strings(want)
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("exported API surface changed.\n--- locked ---\n%s\n--- actual ---\n%s\n(update coreAPI deliberately if this change is intended)",
			strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
	sort.Strings(knobs)
	if strings.Join(knobs, "\n") != strings.Join(coreKnobs, "\n") {
		t.Fatalf("option fields changed.\n--- locked ---\n%s\n--- actual ---\n%s\n(update coreKnobs deliberately if this change is intended)",
			strings.Join(coreKnobs, "\n"), strings.Join(knobs, "\n"))
	}
}

// TestHashesComputedOnce: the program and schedule hashes are memoized on
// the compilation and the runner, first computed while several goroutines
// ask at once (run it under -race), and equal to the hashes computed afresh.
func TestHashesComputedOnce(t *testing.T) {
	c, err := Compile(reqSrc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewRunner(exec.Config{Workers: 2, Params: reqParams})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	ir.Fprint(&sb, c.Prog)
	wantProg, wantSched := profile.HashBytes([]byte(sb.String())), scheduleHash(r.Remarks())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := c.ProgramHash(); got != wantProg {
				t.Errorf("ProgramHash = %s, want %s", got, wantProg)
			}
			if got := r.ScheduleHash(); got != wantSched {
				t.Errorf("ScheduleHash = %s, want %s", got, wantSched)
			}
		}()
	}
	wg.Wait()
}

// withProfile asks for the run's durable sync profile (RunOptions.Profile).
func withProfile(r *Request) { r.Run.Profile = true }
