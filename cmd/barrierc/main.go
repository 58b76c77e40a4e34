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
//	barrierc -kernel jacobi1d -certify [-sabotage N] [-witness]
//	barrierc -list
//
// With -lint the program is checked by the source-level DSL linter and the
// diagnostics are printed go-vet style; the exit status is 0 when the
// program is clean (informational notes allowed), 1 when any warning or
// error was found, and 2 on an internal error. With -certify the optimized
// schedule is re-checked by the independent static certifier and the
// certificate is printed as a versioned JSON envelope (schema_version,
// tool "barrierc-certify", payload); -sabotage N demotes sync site N
// (1-based, the executor's SabotageEdge numbering) first, and -witness
// renders a rejection in the same envelope including the concrete
// counterexample witnesses.
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
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/certify"
	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/envelope"
	"repro/internal/fdo"
	"repro/internal/lint"
	"repro/internal/profile"
	"repro/internal/remarks"
	"repro/internal/suite"
	"repro/internal/syncopt"
)

func main() {
	var (
		kernel   = flag.String("kernel", "", "analyze a named suite kernel instead of a file")
		list     = flag.Bool("list", false, "list suite kernels and exit")
		explain  = flag.Bool("explain", false, "print placements, serial reasons and per-boundary sync")
		cyclic   = flag.Bool("cyclic", false, "use a cyclic data decomposition")
		ablate   = flag.String("ablate", "", "disable an optimization: repl (replacement) or merge (group merging)")
		lintF    = flag.Bool("lint", false, "lint the program and exit (0 clean, 1 findings, 2 internal error)")
		certF    = flag.Bool("certify", false, "re-check the schedule with the independent certifier; print the JSON certificate")
		sabot    = flag.Int("sabotage", 0, "with -certify: demote sync site N (1-based) to none before checking")
		witness  = flag.Bool("witness", false, "with -certify: print rejections as JSON including witnesses")
		remarksF = flag.Bool("remarks", false, "print per-sync-site optimization remarks (why each site was kept, weakened or eliminated)")
		irregF   = flag.Bool("irreg", false, "print the irregular-access value facts and the sync decisions they enabled")
		jsonOut  = flag.Bool("json", false, "with -remarks: print the remark set as a versioned JSON envelope")
		fdoIn    = flag.String("fdo", "", "feed a measured profile (spmdrun -profile-out) back through the feedback-directed optimizer; composes with -remarks/-certify")
	)
	flag.Parse()

	if *list {
		for _, k := range suite.Kernels() {
			fmt.Printf("%-14s %s\n", k.Name, k.Shape)
		}
		for _, k := range suite.IrregularKernels() {
			fmt.Printf("%-14s %s (irregular)\n", k.Name, k.Shape)
		}
		return
	}

	src, name, err := loadSource(*kernel, flag.Args())
	if err != nil {
		if *lintF {
			fmt.Fprintln(os.Stderr, "barrierc:", err)
			os.Exit(2)
		}
		fail(err)
	}

	if *lintF {
		diags := lint.Source(src)
		fmt.Print(lint.Render(name, diags))
		if lint.HasFindings(diags) {
			os.Exit(1)
		}
		return
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
		fail(fmt.Errorf("unknown -ablate value %q (want repl or merge)", *ablate))
	}

	c, err := core.Compile(src, opts)
	if err != nil {
		fail(err)
	}

	var fres *fdo.Result
	if *fdoIn != "" {
		prior, err := profile.ReadFile(*fdoIn)
		if err != nil {
			fail(err)
		}
		// Everything downstream — -remarks, -certify, the schedule dump —
		// sees the re-optimized compilation, so the flipped sites carry
		// their profile evidence into whatever view was asked for.
		c, fres, err = c.Reoptimize(prior)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "barrierc: fdo applied %d flip(s) from %s (predicted save %s/run)\n",
			fres.Flips, *fdoIn, time.Duration(fres.PredictedSaveNS))
	}

	if *certF {
		runCertify(c, *sabot, *witness)
		return
	}

	if *irregF {
		printIrreg(c)
		return
	}

	if *remarksF {
		set := c.Remarks()
		if *jsonOut {
			if err := envelope.Write(os.Stdout, envelope.ToolRemarks, set); err != nil {
				fail(err)
			}
			return
		}
		fmt.Print(set.Render())
		return
	}

	if *explain {
		// Reuse the suite's explainer; registry kernels keep their
		// shape description.
		k := suite.Kernel{Name: name, Source: src}
		if *kernel != "" {
			k, _ = suite.Get(*kernel)
		}
		out, err := suite.Explain(k)
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
		return
	}

	fmt.Printf("program %s: %d parallel loops, %d serial\n",
		c.Prog.Name, len(c.Parallelized.Parallel), len(c.Parallelized.Serial))
	st, bst := c.Schedule.Static(), c.Baseline.Static()
	fmt.Printf("static sync sites: base %d barriers -> opt %d barriers, %d counters, %d neighbor\n",
		bst.Barriers, st.Barriers, st.Counters, st.Neighbors)
	if fres != nil {
		fmt.Printf("fdo: %d flip(s), predicted save %s/run\n", fres.Flips, time.Duration(fres.PredictedSaveNS))
		for _, d := range fres.Decisions {
			if d.Action != "reject" {
				fmt.Printf("  site %d: %s %s -> %s (%s)\n", d.Site, d.Action, d.From, d.To, d.Reason)
			}
		}
	}
	fmt.Println("\nschedule:")
	fmt.Print(c.Schedule.Dump())
}

// printIrreg renders the irregular-access story of a compiled program:
// the value facts the forward-dataflow lattice established for index
// arrays and guarded scalars, then every sync site whose decision the
// facts enabled — boundaries eliminated on content/range evidence and
// boundaries lowered to runtime inspector scans.
func printIrreg(c *core.Compiled) {
	fmt.Printf("program %s: irregular-access value analysis\n\n", c.Prog.Name)
	if c.Facts == nil || (len(c.Facts.Arrays) == 0 && len(c.Facts.Scalars) == 0) {
		fmt.Println("no facts established (no guarded setup prefix found)")
		return
	}
	c.Facts.Dump(os.Stdout)

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
		fmt.Println("\nboundaries eliminated by value facts:")
		for _, l := range elim {
			fmt.Println("  " + l)
		}
	}
	if len(insp) > 0 {
		fmt.Println("\nboundaries lowered to inspector scans:")
		for _, l := range insp {
			fmt.Println("  " + l)
		}
	}
	if len(elim) == 0 && len(insp) == 0 {
		fmt.Println("\nno sync decision used the facts (affine tier sufficed)")
	}
}

// runCertify re-checks the compiled schedule (optionally sabotaged) with
// the independent certifier. Exit status: 0 certified, 1 rejected, 2
// internal error (solver-oracle disagreement or bad site id).
func runCertify(c *core.Compiled, sabotage int, witness bool) {
	cs := core.ToCertify(c.Schedule.Lower())
	an := certify.Analyze(c.Prog, cs, c.CertifyOptions())
	if len(an.OracleErrs) > 0 {
		fmt.Fprintln(os.Stderr, "barrierc:", an.OracleErrs[0])
		os.Exit(2)
	}
	if n := len(cs.Sites); sabotage < 0 || sabotage > n {
		fmt.Fprintf(os.Stderr, "barrierc: -sabotage %d out of range (schedule has %d sync sites)\n", sabotage, n)
		os.Exit(2)
	}
	if sabotage > 0 {
		cs = cs.DropSite(sabotage - 1)
	}
	cert, viols := an.Check(cs)
	if len(viols) > 0 {
		if witness {
			pay := certifyPayload{Certified: false, Violations: viols}
			if err := envelope.Write(os.Stdout, envelope.ToolCertify, pay); err != nil {
				fmt.Fprintln(os.Stderr, "barrierc:", err)
				os.Exit(2)
			}
		}
		fmt.Fprintf(os.Stderr, "barrierc: schedule rejected (%d unordered flows):\n%s",
			len(viols), certify.RenderViolations(viols))
		os.Exit(1)
	}
	pay := certifyPayload{Certified: true, Certificate: cert}
	if err := envelope.Write(os.Stdout, envelope.ToolCertify, pay); err != nil {
		fmt.Fprintln(os.Stderr, "barrierc:", err)
		os.Exit(2)
	}
}

// certifyPayload is the -certify envelope payload: the certificate on
// acceptance, the violation list (with witnesses) on a -witness rejection.
type certifyPayload struct {
	Certified   bool                 `json:"certified"`
	Certificate *certify.Certificate `json:"certificate,omitempty"`
	Violations  []certify.Violation  `json:"violations,omitempty"`
}

func loadSource(kernel string, args []string) (src, name string, err error) {
	if kernel != "" {
		k, err := suite.Get(kernel)
		if err != nil {
			if ik, ierr := suite.GetIrregular(kernel); ierr == nil {
				return ik.Source, ik.Name, nil
			}
			return "", "", err
		}
		return k.Source, k.Name, nil
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("usage: barrierc [flags] <file.dsl> (or -kernel NAME, or -list)")
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return string(b), args[0], nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "barrierc:", err)
	os.Exit(1)
}
