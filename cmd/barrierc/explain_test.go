package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/suite"
)

// barrierc runs the command in-process and returns its stdout, failing the
// test on a non-zero exit.
func barrierc(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("barrierc %v: exit %d, stderr:\n%s", args, code, stderr.String())
	}
	return stdout.String()
}

// after returns the part of s from the first occurrence of marker on.
func after(t *testing.T, s, marker string) string {
	t.Helper()
	i := strings.Index(s, marker)
	if i < 0 {
		t.Fatalf("output has no %q:\n%s", marker, s)
	}
	return s[i:]
}

func TestExplainOutput(t *testing.T) {
	out := barrierc(t, "-kernel", "tred2like", "-explain")
	for _, want := range []string{"placement", "schedule:", "counter", "static sync sites"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

// TestExplainSerialLoopsInSourceOrder pins that -explain lists serial
// loops in source order, the same on every call: they live in a map, so a
// listing by map iteration differs from call to call.
func TestExplainSerialLoopsInSourceOrder(t *testing.T) {
	want := "serial loops:\n" +
		"  do k = 1, T ...: loop-carried output dep on F: F(i) -> F(i)\n" +
		"  do i = 2, N - 1 ...: loop-carried flow dep on F: F(i) -> F(i - 1)\n" +
		"  do i = 2, M - 1 ...: loop-carried flow dep on C: C(i) -> C(i - 1)\n" +
		"\nschedule:\n"
	first := barrierc(t, "-kernel", "mg2level", "-explain")
	for i := 0; i < 20; i++ {
		out := barrierc(t, "-kernel", "mg2level", "-explain")
		if got := after(t, out, "serial loops:"); !strings.HasPrefix(got, want) {
			t.Fatalf("call %d: serial loops not in source order:\n%s", i, got)
		}
		if out != first {
			t.Fatalf("call %d differs from the first:\n%s\nfirst:\n%s", i, out, first)
		}
	}
}

// TestExplainHonoursCompileFlags pins that -explain renders the compilation
// the other views read: -cyclic and -ablate reach its placements and its
// static-sites line.
func TestExplainHonoursCompileFlags(t *testing.T) {
	for _, flags := range [][]string{{"-cyclic"}, {"-ablate", "repl"}, {"-ablate", "merge"}} {
		args := append([]string{"-kernel", "jacobi1d"}, flags...)
		plain := barrierc(t, args...)
		explain := barrierc(t, append(args, "-explain")...)
		static := strings.SplitAfter(after(t, plain, "static sync sites:"), "\n")[0]
		if !strings.HasSuffix(explain, "\n"+static) {
			t.Errorf("%v: -explain does not end with the view's %q:\n%s", flags, static, explain)
		}
		if got := after(t, explain, "\nschedule:\n"); !strings.HasPrefix(got, after(t, plain, "\nschedule:\n")) {
			t.Errorf("%v: -explain schedule differs from the view's:\n%s", flags, got)
		}
	}
	if out := barrierc(t, "-kernel", "jacobi1d", "-cyclic", "-explain"); !strings.Contains(out, "placement: cyclic") {
		t.Errorf("-cyclic -explain names no cyclic placement:\n%s", out)
	}
}

// TestExplainEveryListedKernel explains every kernel -list prints, the five
// irregular ones included.
func TestExplainEveryListedKernel(t *testing.T) {
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(barrierc(t, "-list")), "\n") {
		name := strings.Fields(line)[0]
		if out := barrierc(t, "-kernel", name, "-explain"); !strings.HasPrefix(out, "program "+name+" — ") {
			t.Errorf("%s: -explain output starts %q", name, strings.SplitN(out, "\n", 2)[0])
		}
		n++
	}
	if want := len(suite.Kernels()) + len(suite.IrregularKernels()); n != want {
		t.Errorf("-list printed %d kernels, want %d", n, want)
	}
}

// TestExplainHonoursFDO pins that -fdo -explain renders the re-optimized
// schedule the -fdo view prints, from a profile of a P=4 run.
func TestExplainHonoursFDO(t *testing.T) {
	k, err := suite.Find("meshsmooth")
	if err != nil {
		t.Fatal(err)
	}
	req := core.NewRequest(k.Source, core.WithParams(k.Params), core.WithWorkers(4))
	req.Run.Profile = true
	res, err := core.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "p.json")
	if err := profile.WriteFile(path, res.Profile); err != nil {
		t.Fatal(err)
	}
	plain := barrierc(t, "-kernel", "meshsmooth", "-fdo", path)
	explain := barrierc(t, "-kernel", "meshsmooth", "-fdo", path, "-explain")
	want := after(t, plain, "\nschedule:\n")
	if got := after(t, explain, "\nschedule:\n"); !strings.HasPrefix(got, want) {
		t.Errorf("-fdo -explain schedule:\n%s\nwant the -fdo view's:\n%s", got, want)
	}
	static := barrierc(t, "-kernel", "meshsmooth", "-explain")
	if !strings.Contains(plain, "fdo: 0 flip") && after(t, static, "\nschedule:\n") == after(t, explain, "\nschedule:\n") {
		t.Error("the profile flipped a site, yet -fdo -explain shows the static schedule")
	}
}
