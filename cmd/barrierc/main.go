// Command barrierc is the compiler driver: it runs the full analysis
// pipeline on a DSL program (a file, or a named suite kernel) and reports
// the parallelization, computation partitions and synchronization schedule
// — the paper's compiler output, made inspectable.
//
// Usage:
//
//	barrierc [-explain] [-cyclic] [-ablate repl|merge] <file.dsl>
//	barrierc -kernel jacobi2d -explain
//	barrierc -kernel jacobi2d -remarks [-json]
//	barrierc -kernel permcopy -irreg
//	barrierc -lint <file.dsl>
//	barrierc -kernel jacobi1d -certify [-sabotage N]
//	barrierc -list
//
// With -lint the program is checked by the source-level DSL linter and the
// diagnostics are printed go-vet style; the exit status is 0 when the
// program is clean (informational notes allowed), 1 when any warning or
// error was found, and 2 on an internal error. With -certify the optimized
// schedule is re-checked by the independent static certifier and the
// verdict is printed as a versioned JSON envelope (schema_version, tool
// "barrierc-certify", payload): the certificate when the schedule passes
// (exit 0), certified:false with the violations and their concrete
// counterexample witnesses when it is rejected (exit 1); -sabotage N
// demotes sync site N (1-based, the executor's SabotageEdge numbering)
// first.
//
// With -irreg the irregular-access value analysis is printed: the facts
// the forward-dataflow lattice established for every index array and
// guarded scalar (content, element range, monotonicity, injectivity,
// initialized cover), followed by the per-site decisions the facts paid
// for — boundaries eliminated on value evidence and boundaries lowered
// to runtime inspector scans.
//
// With -remarks the per-sync-site optimization remarks are printed: for
// every site (the executor's 1-based numbering), the primitive chosen, the
// source position, the dependence pairs that forced it with their
// Fourier-Motzkin evidence, and the cheaper alternatives rejected. With
// -json the set is wrapped in the versioned envelope (tool
// "barrierc-remarks"); docs/REMARKS.md documents the schema.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/envelope"
	"repro/internal/fdo"
	"repro/internal/ir"
	"repro/internal/lint"
	"repro/internal/profile"
	"repro/internal/remarks"
	"repro/internal/suite"
	"repro/internal/syncopt"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: it parses args, writes the
// requested view to stdout and diagnostics to stderr, and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("barrierc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kernel   = fs.String("kernel", "", "analyze a named suite kernel instead of a file")
		list     = fs.Bool("list", false, "list suite kernels and exit")
		explain  = fs.Bool("explain", false, "print placements, serial reasons and per-boundary sync")
		cyclic   = fs.Bool("cyclic", false, "use a cyclic data decomposition")
		ablate   = fs.String("ablate", "", "disable an optimization: repl (replacement) or merge (group merging)")
		lintF    = fs.Bool("lint", false, "lint the program and exit (0 clean, 1 findings, 2 internal error)")
		certF    = fs.Bool("certify", false, "re-check the schedule with the independent certifier; print the verdict as a JSON envelope (exit 0 certified, 1 rejected)")
		sabot    = fs.Int("sabotage", 0, "with -certify: demote sync site N (1-based) to none before checking")
		remarksF = fs.Bool("remarks", false, "print per-sync-site optimization remarks (why each site was kept, weakened or eliminated)")
		irregF   = fs.Bool("irreg", false, "print the irregular-access value facts and the sync decisions they enabled")
		jsonOut  = fs.Bool("json", false, "with -remarks: print the remark set as a versioned JSON envelope")
		fdoIn    = fs.String("fdo", "", "feed a measured profile (spmdrun -profile-out) back through the feedback-directed optimizer; composes with -remarks/-certify/-explain")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "barrierc:", err)
		return 1
	}

	if *list {
		for _, k := range suite.Kernels() {
			fmt.Fprintf(stdout, "%-14s %s\n", k.Name, k.Shape)
		}
		for _, k := range suite.IrregularKernels() {
			fmt.Fprintf(stdout, "%-14s %s (irregular)\n", k.Name, k.Shape)
		}
		return 0
	}

	k, err := loadSource(*kernel, fs.Args())
	if err != nil {
		if *lintF {
			fmt.Fprintln(stderr, "barrierc:", err)
			return 2
		}
		return fail(err)
	}

	if *lintF {
		diags := lint.Source(k.Source)
		fmt.Fprint(stdout, lint.Render(k.Name, diags))
		if lint.HasFindings(diags) {
			return 1
		}
		return 0
	}

	opts := core.Options{}
	if *cyclic {
		opts.Decomp = decomp.Cyclic
	}
	switch *ablate {
	case "":
	case "repl":
		opts.Sync = syncopt.Options{NoReplacement: true}
	case "merge":
		opts.Sync = syncopt.Options{NoMerging: true}
	default:
		return fail(fmt.Errorf("unknown -ablate value %q (want repl or merge)", *ablate))
	}

	// Every view below reads this one compilation.
	c, err := core.Compile(k.Source, opts)
	if err != nil {
		return fail(err)
	}

	var fres *fdo.Result
	if *fdoIn != "" {
		prior, err := profile.ReadFile(*fdoIn)
		if err != nil {
			return fail(err)
		}
		// Everything downstream sees the re-optimized compilation, so the
		// flipped sites carry their profile evidence into whatever view
		// was asked for.
		c, fres, err = c.Reoptimize(prior)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "barrierc: fdo applied %d flip(s) from %s (predicted save %s/run)\n",
			fres.Flips, *fdoIn, time.Duration(fres.PredictedSaveNS))
	}

	switch {
	case *certF:
		return runCertify(stdout, stderr, c, *sabot)
	case *irregF:
		printIrreg(stdout, c)
	case *remarksF && *jsonOut:
		if err := envelope.Write(stdout, envelope.ToolRemarks, c.Remarks()); err != nil {
			return fail(err)
		}
	case *remarksF:
		fmt.Fprint(stdout, c.Remarks().Render())
	case *explain:
		printExplain(stdout, k, c)
	default:
		fmt.Fprintf(stdout, "program %s: %d parallel loops, %d serial\n",
			c.Prog.Name, len(c.Parallelized.Parallel), len(c.Parallelized.Serial))
		fmt.Fprint(stdout, staticSites(c))
		if fres != nil {
			fmt.Fprintf(stdout, "fdo: %d flip(s), predicted save %s/run\n", fres.Flips, time.Duration(fres.PredictedSaveNS))
			for _, d := range fres.Decisions {
				if d.Action != "reject" {
					fmt.Fprintf(stdout, "  site %d: %s %s -> %s (%s)\n", d.Site, d.Action, d.From, d.To, d.Reason)
				}
			}
		}
		fmt.Fprint(stdout, "\nschedule:\n"+c.Schedule.Dump())
	}
	return 0
}

// staticSites is the base-vs-optimized static sync-site line the default
// view and -explain both print.
func staticSites(c *core.Compiled) string {
	st, bst := c.Schedule.Static(), c.Baseline.Static()
	return fmt.Sprintf("static sync sites: base %d barriers -> opt %d barriers, %d counters, %d neighbor\n",
		bst.Barriers, st.Barriers, st.Counters, st.Neighbors)
}

// printExplain renders a compilation's parallel loops with their
// placements, its serial loops with the reason each stayed serial (both in
// source order), its schedule and its static sync-site counts — the view
// behind figure F2.
func printExplain(w io.Writer, k suite.Kernel, c *core.Compiled) {
	fmt.Fprintf(w, "program %s — %s\n\nparallel loops:\n", k.Name, k.Shape)
	for _, l := range c.Parallelized.Parallel {
		fmt.Fprintf(w, "  %s\n    placement: %s\n", ir.StmtString(l), c.Plan.Placements[l])
		if len(l.Private) > 0 {
			fmt.Fprintf(w, "    private: %v\n", l.Private)
		}
		for _, r := range l.Reductions {
			fmt.Fprintf(w, "    reduction: %s (%s)\n", r.Var, r.Op)
		}
	}
	if len(c.Parallelized.Serial) > 0 {
		fmt.Fprintln(w, "serial loops:")
		ir.WalkStmts(c.Prog.Body, func(s ir.Stmt) bool {
			if l, ok := s.(*ir.Loop); ok {
				if why, serial := c.Parallelized.Serial[l]; serial {
					fmt.Fprintf(w, "  %s: %s\n", ir.StmtString(l), why)
				}
			}
			return true
		})
	}
	fmt.Fprint(w, "\nschedule:\n"+c.Schedule.Dump()+"\n"+staticSites(c))
}

// printIrreg renders the irregular-access story of a compiled program:
// the value facts the forward-dataflow lattice established for index
// arrays and guarded scalars, then every sync site whose decision the
// facts enabled — boundaries eliminated on content/range evidence and
// boundaries lowered to runtime inspector scans.
func printIrreg(w io.Writer, c *core.Compiled) {
	fmt.Fprintf(w, "program %s: irregular-access value analysis\n\n", c.Prog.Name)
	if c.Facts == nil || (len(c.Facts.Arrays) == 0 && len(c.Facts.Scalars) == 0) {
		fmt.Fprintln(w, "no facts established (no guarded setup prefix found)")
		return
	}
	c.Facts.Dump(w)

	var elim, insp []string
	for _, r := range c.Remarks().Remarks {
		evidence := map[string]bool{}
		var ev []string
		for _, d := range r.Deps {
			for _, f := range d.Irreg {
				if !evidence[f] {
					evidence[f] = true
					ev = append(ev, f)
				}
			}
		}
		switch {
		case r.Primitive == remarks.PrimInspector:
			line := fmt.Sprintf("site %d (%s): runtime inspector scan", r.Site, r.Region)
			for _, f := range ev {
				line += "\n    " + f
			}
			insp = append(insp, line)
		case r.Eliminated() && len(ev) > 0:
			line := fmt.Sprintf("site %d (%s): eliminated on value facts", r.Site, r.Region)
			for _, f := range ev {
				line += "\n    " + f
			}
			elim = append(elim, line)
		}
	}
	if len(elim) > 0 {
		fmt.Fprintln(w, "\nboundaries eliminated by value facts:")
		for _, l := range elim {
			fmt.Fprintln(w, "  "+l)
		}
	}
	if len(insp) > 0 {
		fmt.Fprintln(w, "\nboundaries lowered to inspector scans:")
		for _, l := range insp {
			fmt.Fprintln(w, "  "+l)
		}
	}
	if len(elim) == 0 && len(insp) == 0 {
		fmt.Fprintln(w, "\nno sync decision used the facts (affine tier sufficed)")
	}
}

// runCertify re-checks the compiled schedule (optionally sabotaged) with
// the independent certifier and returns the exit status: 0 certified, 1
// rejected, 2 internal error (solver-oracle disagreement or bad site id).
func runCertify(stdout, stderr io.Writer, c *core.Compiled, sabotage int) int {
	cs := core.ToCertify(c.Schedule.Lower())
	an := certify.Analyze(c.Prog, cs, c.CertifyOptions())
	if len(an.OracleErrs) > 0 {
		fmt.Fprintln(stderr, "barrierc:", an.OracleErrs[0])
		return 2
	}
	if n := len(cs.Sites); sabotage < 0 || sabotage > n {
		fmt.Fprintf(stderr, "barrierc: -sabotage %d out of range (schedule has %d sync sites)\n", sabotage, n)
		return 2
	}
	if sabotage > 0 {
		cs = cs.DropSite(sabotage - 1)
	}
	cert, viols := an.Check(cs)
	pay, code := certifyPayload{Certified: true, Certificate: cert}, 0
	if len(viols) > 0 {
		fmt.Fprintf(stderr, "barrierc: schedule rejected (%d unordered flows):\n%s",
			len(viols), certify.RenderViolations(viols))
		pay, code = certifyPayload{Certified: false, Violations: viols}, 1
	}
	if err := envelope.Write(stdout, envelope.ToolCertify, pay); err != nil {
		fmt.Fprintln(stderr, "barrierc:", err)
		return 2
	}
	return code
}

// certifyPayload is the -certify envelope payload: the certificate on
// acceptance, the violation list (with witnesses) on a rejection.
type certifyPayload struct {
	Certified   bool                 `json:"certified"`
	Certificate *certify.Certificate `json:"certificate,omitempty"`
	Violations  []certify.Violation  `json:"violations,omitempty"`
}

// loadSource returns the named suite kernel, or the program in the one
// file argument (named by its path, with no shape).
func loadSource(kernel string, args []string) (suite.Kernel, error) {
	if kernel != "" {
		return suite.Find(kernel)
	}
	if len(args) != 1 {
		return suite.Kernel{}, fmt.Errorf("usage: barrierc [flags] <file.dsl> (or -kernel NAME, or -list)")
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return suite.Kernel{}, err
	}
	return suite.Kernel{Name: args[0], Source: string(b)}, nil
}
