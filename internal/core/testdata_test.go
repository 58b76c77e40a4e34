package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/syncopt"
)

// TestCorpus compiles every DSL file in testdata/: files prefixed bad_
// must fail with a diagnostic; files prefixed lint_ are negative lint
// fixtures (valid programs with deliberate defects, exercised by the lint
// golden tests) and are skipped; every other file must compile, verify its
// schedule, and execute correctly in all three modes.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.dsl")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files found: %v", err)
	}
	params := map[string]int64{"N": 24, "M": 10, "T": 3}
	for _, f := range files {
		f := f
		if strings.HasPrefix(filepath.Base(f), "lint_") {
			continue
		}
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			c, err := core.Compile(string(src), core.Options{})
			if strings.HasPrefix(filepath.Base(f), "bad_") {
				if err == nil {
					t.Fatal("bad corpus file compiled")
				}
				return
			}
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if errs := syncopt.Verify(c.Analyzer, c.Schedule); len(errs) != 0 {
				t.Fatalf("schedule verification: %v", errs[0])
			}
			p := map[string]int64{}
			for _, name := range c.Prog.Params {
				p[name] = params[name]
			}
			ref, err := c.RunSequential(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, newRunner := range []func(exec.Config) (*core.Runner, error){c.NewBaselineRunner, c.NewRunner} {
				r, err := newRunner(exec.Config{Workers: 4, Params: p})
				if err != nil {
					t.Fatal(err)
				}
				res, err := r.Run()
				if err != nil {
					t.Fatalf("%v: %v", r.Mode(), err)
				}
				if d := exec.ComparableDiff(ref, res.State, c.Prog); d > 1e-9 {
					t.Errorf("%v diverged by %g", r.Mode(), d)
				}
			}
		})
	}
}

// TestSweepPipelinesOneDirection: the one-directional sweep corpus file
// must schedule a lower-only neighbor wait at the loop bottom (the
// asymmetric pipeline of the paper's §3.3 example).
func TestSweepPipelinesOneDirection(t *testing.T) {
	src, err := os.ReadFile("../../testdata/sweep.dsl")
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Compile(string(src), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	dump := c.Schedule.Dump()
	if !strings.Contains(dump, "neighbor(lower)") {
		t.Errorf("sweep should wait on the lower neighbor only:\n%s", dump)
	}
	if c.Schedule.Static().Barriers != 0 {
		t.Errorf("sweep should be barrier-free:\n%s", dump)
	}
}
