package certify_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/suite"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestCertificateGolden pins the certifier's verdicts on all 21 suite
// kernels, optimized SPMD and fork-join baseline step program alike: the
// certificate JSON, or the rendered violations with their witnesses; for
// every synchronized site the verdict on the program with that site
// dropped; and the verdict on every step mutant (mutants_test.go).
func TestCertificateGolden(t *testing.T) {
	var out bytes.Buffer
	for _, c := range checkedPrograms(t) {
		fmt.Fprintf(&out, "== %s %s\n", c.kernel, c.label)
		if c.cert != nil {
			out.Write(c.cert.JSON())
		} else {
			out.WriteString(certify.RenderViolations(c.viols))
		}
		verdict := func(what string, q *certify.Program) {
			_, viols := c.an.Check(q)
			fmt.Fprintf(&out, "%s: rejected=%t violations=%d witness=%t\n",
				what, len(viols) > 0, len(viols), hasWitness(viols))
		}
		for id, kind := range c.prog.Kinds() {
			if kind != certify.KindNone {
				verdict(fmt.Sprintf("drop site %d (%s)", id, kind), c.prog.DropSite(id))
			}
		}
		if c.cert != nil {
			for _, m := range mutantsOf(c) {
				verdict(fmt.Sprintf("mutant (%c) %s", m.kind, m.label), m.prog)
			}
		}
	}
	checkGolden(t, "certificates.golden", out.Bytes())
}

// checked is one step program of a suite kernel with its analysis and the
// certifier's verdict on it.
type checked struct {
	kernel, label string
	prog          *certify.Program
	an            *certify.Analysis
	cert          *certify.Certificate
	viols         []certify.Violation
}

// checkedPrograms checks both step programs of every suite kernel, the
// optimized SPMD one and the fork-join baseline, failing the test on an
// oracle disagreement.
func checkedPrograms(t *testing.T) []checked {
	t.Helper()
	var out []checked
	for _, k := range append(suite.Kernels(), suite.IrregularKernels()...) {
		c := compile(t, k.Source)
		for _, s := range []checked{
			{kernel: k.Name, label: "opt", prog: core.ToCertify(c.Schedule.Lower(false))},
			{kernel: k.Name, label: "base", prog: core.ToCertify(c.Baseline.Lower(true))},
		} {
			s.an = certify.Analyze(c.Prog, s.prog, c.CertifyOptions())
			if len(s.an.OracleErrs) > 0 {
				t.Fatalf("%s %s: oracle disagreement: %v", s.kernel, s.label, s.an.OracleErrs[0])
			}
			s.cert, s.viols = s.an.Check(s.prog)
			out = append(out, s)
		}
	}
	return out
}

func hasWitness(viols []certify.Violation) bool {
	for _, v := range viols {
		if v.Witness != nil {
			return true
		}
	}
	return false
}

// checkGolden compares got with testdata/name byte for byte (-update
// rewrites the file).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted (go test ./internal/certify -run %s -update)", path, t.Name())
	}
}
