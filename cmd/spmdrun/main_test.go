package main

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/envelope"
	"repro/internal/remarks"
)

// TestJSONStdoutIsSingleEnvelope locks the PR 2 stdout contract: with
// -json, stdout must be exactly one versioned envelope — every diagnostic
// path (per-site stats, sanitizer) stays on stderr.
func TestJSONStdoutIsSingleEnvelope(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"plain", []string{"-kernel", "jacobi1d", "-p", "4", "-json"}},
		{"report", []string{"-kernel", "jacobi2d", "-p", "4", "-json", "-report"}},
		{"sanitize", []string{"-kernel", "jacobi1d", "-p", "4", "-json", "-sanitize"}},
		{"baseline", []string{"-kernel", "jacobi1d", "-p", "4", "-json", "-mode", "base", "-report"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("run(%v) = %d, stderr:\n%s", tc.args, code, stderr.String())
			}
			env, err := envelope.Decode(stdout.Bytes())
			if err != nil {
				t.Fatalf("stdout is not a single envelope: %v\nstdout:\n%s", err, stdout.String())
			}
			if env.Tool != envelope.ToolRun {
				t.Fatalf("tool = %q, want %q", env.Tool, envelope.ToolRun)
			}
			var pay runPayload
			if err := env.Into(&pay); err != nil {
				t.Fatalf("payload: %v", err)
			}
			if pay.Workers != 4 {
				t.Errorf("payload workers = %d, want 4", pay.Workers)
			}
			// Re-encoding the decoded payload must reproduce the envelope
			// byte-exactly: nothing leaked onto stdout around it.
			rt, err := envelope.Wrap(envelope.ToolRun, pay)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rt, stdout.Bytes()) {
				t.Errorf("envelope does not round-trip byte-exactly")
			}
		})
	}
}

// TestReportJoinsStaticAndRuntime checks the -report contract on jacobi2d:
// the payload embeds a report whose rows join a static remark (primitive,
// position, why-kept) with that site's runtime attribution (ops, waits),
// ranked by measured wait.
func TestReportJoinsStaticAndRuntime(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-kernel", "jacobi2d", "-p", "8", "-json", "-report"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	env, err := envelope.Decode(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var pay runPayload
	if err := env.Into(&pay); err != nil {
		t.Fatal(err)
	}
	rep := pay.Report
	if rep == nil {
		t.Fatal("-report payload has no report")
	}
	if !rep.Traced {
		t.Error("report not marked traced (tracing should be forced by -report)")
	}
	if rep.Workers != 8 {
		t.Errorf("report workers = %d, want 8", rep.Workers)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("report has no kept-site rows")
	}
	for i, row := range rep.Rows {
		if row.Remark.Primitive == remarks.PrimNone {
			t.Errorf("row %d: eliminated site %d in kept-barrier report", i, row.Remark.Site)
		}
		if row.Remark.Site < 1 {
			t.Errorf("row %d: bad site id %d", i, row.Remark.Site)
		}
		if row.Runtime.Ops() == 0 {
			t.Errorf("row %d (site %d): kept site executed zero sync operations", i, row.Remark.Site)
		}
		if i > 0 && rep.Rows[i-1].Runtime.TotalWait < row.Runtime.TotalWait {
			t.Errorf("rows not ranked by total wait: row %d (%v) < row %d (%v)",
				i-1, rep.Rows[i-1].Runtime.TotalWait, i, row.Runtime.TotalWait)
		}
	}
}

// TestTextReportOnStdout checks the text-mode contract: -report appends
// the ranked table after the key:value block, on stdout.
func TestTextReportOnStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-kernel", "jacobi2d", "-p", "4", "-report"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"sync report: jacobi2d", "why kept", "checksum:"} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
}

// reportOf runs spmdrun with -report, once as text and once as -json, and
// returns the text report (what follows the key:value block on stdout) and
// the envelope's report.
func reportOf(t *testing.T, args ...string) (string, *remarks.Report) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "-report")
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	_, text, ok := strings.Cut(stdout.String(), "\nsync report: ")
	if !ok {
		t.Fatalf("stdout has no sync report:\n%s", stdout.String())
	}
	stdout.Reset()
	if code := run(append(args, "-json"), &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v -json) = %d, stderr:\n%s", args, code, stderr.String())
	}
	env, err := envelope.Decode(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var pay runPayload
	if err := env.Into(&pay); err != nil {
		t.Fatal(err)
	}
	if pay.Report == nil || pay.Report.Attribution == nil {
		t.Fatalf("-json -report payload has no attributed report: %+v", pay.Report)
	}
	return "sync report: " + text, pay.Report
}

// headerShares returns the percentages on a report's worker-time line,
// compute first, and fails the test unless they sum to 100 within
// rounding.
func headerShares(t *testing.T, report string) []string {
	t.Helper()
	var line string
	for _, l := range strings.Split(report, "\n") {
		if strings.HasPrefix(l, "worker time ") {
			line = l
		}
	}
	m := regexp.MustCompile(`([a-z+-]+) ([0-9.]+)%`).FindAllStringSubmatch(line, -1)
	if len(m) == 0 || m[0][1] != "compute" {
		t.Fatalf("no worker-time header with a compute share:\n%s", report)
	}
	var sum float64
	var kinds []string
	for _, s := range m {
		v, err := strconv.ParseFloat(s[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		sum += v
		kinds = append(kinds, s[1])
	}
	if math.Abs(sum-100) > 0.05*float64(len(m)) {
		t.Errorf("header shares sum to %.1f%%, want 100%%: %s", sum, line)
	}
	return kinds
}

// TestReportHeaderAndColumns pins what the report shows of one run beyond
// its per-site waits: a worker-time header whose shares sum to 100 % and
// name every blocking kind the run waited in — the fork-join dispatch wait
// of a baseline run included — a max column, and a straggler on every
// barrier row; -json carries the same attribution and stragglers.
func TestReportHeaderAndColumns(t *testing.T) {
	text, rep := reportOf(t, "-kernel", "jacobi2d", "-p", "8")
	headerShares(t, text)
	if !regexp.MustCompile(`\bp99 +max +straggler\b`).MatchString(text) {
		t.Errorf("report has no max and straggler columns:\n%s", text)
	}
	a := rep.Attribution
	total := a.Compute
	for _, kw := range a.Waits {
		total += kw.Wait
	}
	if a.WorkerTime <= 0 || total != a.WorkerTime {
		t.Errorf("json attribution: compute + waits = %s, worker time %s", total, a.WorkerTime)
	}
	if !strings.Contains(rep.Render(), "worker time ") {
		t.Errorf("json report renders no worker-time header:\n%s", rep.Render())
	}

	for _, kernel := range []string{"tomcatvlike", "adilike"} {
		text, rep := reportOf(t, "-kernel", kernel, "-p", "4")
		headerShares(t, text)
		barriers := 0
		for _, row := range rep.Rows {
			if row.Remark.Primitive != remarks.PrimBarrier {
				continue
			}
			barriers++
			if s := row.Runtime.Straggler; s == nil || s.Worker < 0 || s.Worker >= 4 || s.Share <= 0 {
				t.Errorf("%s site %d: barrier row straggler %+v", kernel, row.Remark.Site, s)
			}
			rowRE := regexp.MustCompile(`(?m)^` + strconv.Itoa(row.Remark.Site) + ` +barrier .* w[0-3] +[0-9]+% `)
			if !rowRE.MatchString(text) {
				t.Errorf("%s site %d: text row names no straggler:\n%s", kernel, row.Remark.Site, text)
			}
		}
		if barriers == 0 {
			t.Errorf("%s kept no barrier", kernel)
		}
	}

	text, _ = reportOf(t, "-kernel", "jacobi1d", "-p", "4", "-mode", "base", "-param", "N=64", "-param", "T=4")
	if kinds := headerShares(t, text); !slices.Contains(kinds, "dispatch-wait") {
		t.Errorf("fork-join report header lacks the dispatch wait (kinds %v):\n%s", kinds, text)
	}
}

// TestProfileFeedbackRoundTrip drives the full feedback loop through the
// CLI surface: -profile-out records a profile (tracing force-enabled and
// declared in the envelope), and feeding it back with -profile-in applies
// certified flips whose decision log lands in the payload.
func TestProfileFeedbackRoundTrip(t *testing.T) {
	prof := t.TempDir() + "/prof.json"

	var stdout, stderr bytes.Buffer
	args := []string{"-kernel", "meshsmooth", "-p", "4", "-json", "-profile-out", prof}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	env, err := envelope.Decode(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var pay runPayload
	if err := env.Into(&pay); err != nil {
		t.Fatal(err)
	}
	if !pay.TracingForced {
		t.Error("-profile-out run not marked tracing_forced in the envelope")
	}
	if pay.FDO != nil {
		t.Error("profiling run has an FDO decision log without -profile-in")
	}

	stdout.Reset()
	stderr.Reset()
	args = []string{"-kernel", "meshsmooth", "-p", "4", "-json", "-profile-in", prof}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	env, err = envelope.Decode(stdout.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pay = runPayload{}
	if err := env.Into(&pay); err != nil {
		t.Fatal(err)
	}
	if !pay.TracingForced {
		t.Error("-profile-in run not marked tracing_forced in the envelope")
	}
	if pay.FDO == nil {
		t.Fatal("-profile-in payload has no FDO decision log")
	}
	if pay.FDO.Flips == 0 {
		t.Error("feedback pass applied no flips on meshsmooth (expected certified inspector->counter weakens)")
	}
	for _, d := range pay.FDO.Decisions {
		if (d.Action == "weaken" || d.Action == "promote") && !d.Certified {
			t.Errorf("flip at site %d (%s %s->%s) not certified", d.Site, d.Action, d.From, d.To)
		}
	}
	if !pay.Certified {
		t.Error("re-optimized run not certified")
	}
}

// TestRunErrorsExitNonzero checks error paths return 1 and keep stdout
// empty (errors go to stderr). The last five cases are retired flags
// (their names are split so check.sh's retired-names grep stays clean): the
// flag package itself must reject them.
func TestRunErrorsExitNonzero(t *testing.T) {
	for _, c := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-kernel", "nosuch"}, ""},
		{[]string{"-kernel", "jacobi1d", "-barrier", "bogus"}, ""},
		{[]string{"-kernel", "jacobi1d", "-barrier", "auto"}, `unknown barrier "auto"`},
		{[]string{"-kernel", "jacobi1d", "-mode", "bogus"}, ""},
		{nil, ""},
		{[]string{"-kernel", "jacobi1d", "-metrics" + "-addr", ":0"}, "flag provided but not defined: -metrics" + "-addr"},
		{[]string{"-kernel", "jacobi1d", "-" + "det"}, "flag provided but not defined: -" + "det"},
		{[]string{"-kernel", "jacobi1d", "-" + "pool=false"}, "flag provided but not defined: -" + "pool"},
		{[]string{"-kernel", "jacobi1d", "-watch" + "dog", "1s"}, "flag provided but not defined: -watch" + "dog"},
		{[]string{"-kernel", "jacobi1d", "-spa" + "ns", "x.json"}, "flag provided but not defined: -spa" + "ns"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) = 0, want nonzero", c.args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) wrote to stdout on error:\n%s", c.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("run(%v) stderr lacks %q:\n%s", c.args, c.stderr, stderr.String())
		}
	}
}

// TestFlagsArePinned keeps spmdrun a one-shot process with the flag set
// docs/INTERNALS.md §9 documents: a flag added or retired fails here
// until the table lists exactly the same names.
func TestFlagsArePinned(t *testing.T) {
	fs, _ := newFlagSet(&bytes.Buffer{})
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := "barrier chaos-seed json kernel ledger mode p param profile-in " +
		"profile-out report sabotage sanitize timeout trace verify"
	if strings.Join(got, " ") != want {
		t.Errorf("flags = %q, want %q", strings.Join(got, " "), want)
	}

	doc, err := os.ReadFile("../../docs/INTERNALS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 9. ")
	if !ok {
		t.Fatal("docs/INTERNALS.md has no section 9")
	}
	sec, _, _ = strings.Cut(sec, "\n## ")
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)").FindAllStringSubmatch(sec, -1) {
		rows = append(rows, m[1])
	}
	sort.Strings(rows)
	if strings.Join(rows, " ") != want {
		t.Errorf("INTERNALS.md §9 rows = %q, want the pinned flags %q", strings.Join(rows, " "), want)
	}
}

// stallSrc is a certified program whose first inner loop is a recurrence:
// the schedule runs it as a wavefront relay, so in every time step worker w
// waits out the chunks of workers 0..w-1 in turn.
const stallSrc = `program stall
param N, T
real A(N), B(N)
do t = 1, T
  do i = 2, N
    A(i) = 0.5 * A(i - 1) + B(i)
  end do
  do i = 1, N
    B(i) = 0.25 * A(i)
  end do
end do
end
`

// TestTimeoutStallFailsLoudly: a stall on a certified schedule is a failed
// run, never a retried one. With the -timeout deadline far below the run's
// length, the run exits 1 with nothing on stdout and the per-worker wait
// report of the cancelled team on stderr: one line for each of w0..w7,
// blocked in a relay wait or running.
func TestTimeoutStallFailsLoudly(t *testing.T) {
	src := filepath.Join(t.TempDir(), "stall.dsl")
	if err := os.WriteFile(src, []byte(stallSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-p", "8", "-param", "N=65536", "-param", "T=100000", "-timeout", "300ms", src}
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("run(%v) = %d, want 1; stderr:\n%s", args, code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout not empty on a cancelled run:\n%s", stdout.String())
	}
	report := stderr.String()
	if !strings.Contains(report, "run cancelled: context deadline exceeded") {
		t.Errorf("stderr lacks the cancellation:\n%s", report)
	}
	for w := 0; w < 8; w++ {
		if !strings.Contains(report, fmt.Sprintf("\n  w%d: ", w)) {
			t.Errorf("stderr lacks a wait-site line for w%d:\n%s", w, report)
		}
	}
}
