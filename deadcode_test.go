package repro_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadcodeExceptions are the functions under internal/ that no main package
// reaches and that stay anyway, each with its reason. They are reference
// implementations the tests hold production code against. An entry that
// becomes reachable, or whose function is gone, fails the gate.
var deadcodeExceptions = map[string]string{
	"linear.System.SolveNoSubst": "ablation A1 and the soundness cross-check of the substituting solver",
}

// TestEveryInternalFuncHasAProductionCaller fails on each function or method
// under internal/ that no main package (cmd/, bench/, examples/) reaches
// through calls, package-level initializers and interface methods. Such a
// function is called only by tests: delete it, or move it into the tests
// that use it (docs/INTERNALS.md §19).
func TestEveryInternalFuncHasAProductionCaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	if len(deadcodeExceptions) > 4 {
		t.Errorf("%d exceptions: the list holds at most four reference implementations", len(deadcodeExceptions))
	}
	dead, err := unreachableFuncs(".", deadcodeExceptions)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		if d.stale != "" {
			t.Errorf("%s: %s is a stale exception: %s", d.pos(), d.name, d.stale)
		} else {
			t.Errorf("%s: %s has no caller outside tests", d.pos(), d.name)
		}
	}
}

// TestDeadcodeGateOnFixture runs the gate's analysis on a two-package module:
// an export only a _test.go file calls and the helper only it reaches are
// reported; a fmt.Stringer method nothing calls directly and a function a
// main package calls are not.
func TestDeadcodeGateOnFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the standard library from source")
	}
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module fix\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

import "strconv"

// Used is called by the main package.
func Used() int { return 1 }

// Planted is called only by lib_test.go.
func Planted() int { return helper() }

func helper() int { return 2 }

// Num is printed with %v, so fmt calls its String.
type Num int

func (n Num) String() string { return strconv.Itoa(int(n)) }
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestPlanted(t *testing.T) {
	if Planted() != 2 {
		t.Fatal("Planted")
	}
}
`,
		"cmd/app/main.go": `package main

import (
	"fmt"

	"fix/internal/lib"
)

func main() { fmt.Println(lib.Used(), lib.Num(3)) }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := unreachableFuncs(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.pos()+" "+d.name)
	}
	want := []string{
		"internal/lib/lib.go:9 lib.Planted",
		"internal/lib/lib.go:11 lib.helper",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("reported\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// deadFunc is one finding: a function's file (relative to the module root)
// and line, its name (pkg.Func or pkg.Recv.Method), and for an exception
// that no longer holds, why.
type deadFunc struct {
	file  string
	line  int
	name  string
	stale string
}

func (d deadFunc) pos() string { return fmt.Sprintf("%s:%d", d.file, d.line) }

// modPkg is one package of the module, type-checked from its non-test files.
type modPkg struct {
	path, dir, name string
	files           []*ast.File
	types           *types.Package
	info            *types.Info
}

// dynamicIfaces are the standard-library interfaces that the standard
// library finds by type assertion, so no signature in the module names them.
var dynamicIfaces = [][2]string{
	{"fmt", "Stringer"}, {"fmt", "GoStringer"}, {"fmt", "Formatter"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"},
	{"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
}

// errorsIfaces are the unnamed interfaces the errors package asserts.
var errorsIfaces = []string{
	"interface{ Unwrap() error }", "interface{ Unwrap() []error }",
	"interface{ Is(error) bool }", "interface{ As(any) bool }",
}

// unreachableFuncs type-checks the non-test files of every package that
// `go list ./...` names in the module at dir and returns, sorted by position,
// each function and method under the module's internal/ that is reachable
// from no root. The roots are every function of a main package, init
// functions and package-level var initializers, methods that implement an
// interface the module uses or declares (or one in dynamicIfaces or
// errorsIfaces), and the exceptions. Packages that no non-test file imports
// are test support and neither roots nor reported. An exception that is
// reachable without being a root, or that names no function, is reported as
// stale.
func unreachableFuncs(dir string, exceptions map[string]string) ([]deadFunc, error) {
	cmd := exec.Command("go", "list", "-f",
		"{{.Module.Path}}\t{{.ImportPath}}\t{{.Dir}}\t{{.Name}}\t{{join .GoFiles \" \"}}", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOWORK=off", "GOFLAGS=")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.String())
	}
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs := map[string]*modPkg{}
	var order []string
	var module string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 5 || f[4] == "" {
			continue // a package with test files only
		}
		module = f[0]
		p := &modPkg{path: f[1], dir: f[2], name: f[3]}
		for _, name := range strings.Fields(f[4]) {
			file, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, file)
		}
		pkgs[p.path] = p
		order = append(order, p.path)
	}

	// Type-check module packages in import order through one importer, so
	// that every package sees the same objects; the standard library comes
	// from source.
	imp := &modImporter{pkgs: pkgs, std: importer.ForCompiler(fset, "source", nil), fset: fset}
	for _, path := range order {
		if _, err := imp.Import(path); err != nil {
			return nil, err
		}
	}

	imported := map[string]bool{}
	for _, p := range pkgs {
		for _, file := range p.files {
			for _, is := range file.Imports {
				imported[strings.Trim(is.Path.Value, `"`)] = true
			}
		}
	}
	production := func(p *modPkg) bool { return p.name == "main" || imported[p.path] }

	// The call graph: each declared function's uses of other functions.
	declPos := map[*types.Func]token.Pos{}
	declPkg := map[*types.Func]*modPkg{}
	edges := map[*types.Func][]*types.Func{}
	uses := func(info *types.Info, n ast.Node) []*types.Func {
		var fns []*types.Func
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Func); ok {
					fns = append(fns, fn.Origin())
				}
			}
			return true
		})
		return fns
	}
	var roots []*types.Func
	for _, path := range order {
		p := pkgs[path]
		for _, file := range p.files {
			for _, d := range file.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					declPos[fn], declPkg[fn] = d.Pos(), p
					edges[fn] = uses(p.info, d)
					if production(p) && (p.name == "main" || (d.Recv == nil && d.Name.Name == "init")) {
						roots = append(roots, fn)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR && production(p) {
						roots = append(roots, uses(p.info, d)...)
					}
				}
			}
		}
	}

	// Interface methods: a method is a root when its receiver type
	// implements an interface that has a method of that name.
	ifaces := map[*types.Interface]bool{}
	for _, di := range dynamicIfaces {
		sp, err := imp.Import(di[0])
		if err != nil {
			return nil, err
		}
		ifaces[sp.Scope().Lookup(di[1]).Type().Underlying().(*types.Interface)] = true
	}
	for _, expr := range errorsIfaces {
		tv, err := types.Eval(fset, nil, token.NoPos, expr)
		if err != nil {
			return nil, err
		}
		ifaces[tv.Type.(*types.Interface)] = true
	}
	for _, path := range order {
		p := pkgs[path]
		for _, tv := range p.info.Types {
			collectIfaces(tv.Type, ifaces, map[types.Type]bool{})
		}
		for _, obj := range p.info.Defs {
			if obj != nil {
				collectIfaces(obj.Type(), ifaces, map[types.Type]bool{})
			}
		}
	}
	for _, path := range order {
		p := pkgs[path]
		if !production(p) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.NumMethods() == 0 || named.TypeParams().Len() > 0 {
				continue
			}
			if _, ok := named.Underlying().(*types.Interface); ok {
				continue
			}
			for iface := range ifaces {
				if iface.NumMethods() == 0 || !types.Implements(types.NewPointer(named), iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					obj, _, _ := types.LookupFieldOrMethod(named, true, p.types, iface.Method(i).Name())
					if fn, ok := obj.(*types.Func); ok {
						roots = append(roots, fn)
					}
				}
			}
		}
	}

	reach := func(roots []*types.Func) map[*types.Func]bool {
		seen := map[*types.Func]bool{}
		stack := append([]*types.Func(nil), roots...)
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[fn] {
				continue
			}
			seen[fn] = true
			stack = append(stack, edges[fn]...)
		}
		return seen
	}
	finding := func(fn *types.Func, stale string) deadFunc {
		pos := fset.Position(declPos[fn])
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		return deadFunc{filepath.ToSlash(rel), pos.Line, funcName(fn), stale}
	}

	var dead []deadFunc
	byName := map[string]*types.Func{}
	for fn := range declPos {
		byName[funcName(fn)] = fn
	}
	before := reach(roots)
	for name := range exceptions {
		fn, ok := byName[name]
		switch {
		case !ok:
			dead = append(dead, deadFunc{file: "deadcode_test.go", name: name, stale: "no such function"})
		case before[fn]:
			dead = append(dead, finding(fn, "it has a production caller"))
		default:
			roots = append(roots, fn)
		}
	}
	seen := reach(roots)
	for fn, p := range declPkg {
		if !seen[fn] && production(p) && strings.HasPrefix(p.path, module+"/internal/") && fn.Name() != "_" {
			dead = append(dead, finding(fn, ""))
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		if dead[i].file != dead[j].file {
			return dead[i].file < dead[j].file
		}
		return dead[i].line < dead[j].line
	})
	return dead, nil
}

// modImporter type-checks module packages on first import and hands the
// rest to the standard library's source importer.
type modImporter struct {
	pkgs map[string]*modPkg
	std  types.Importer
	fset *token.FileSet
}

func (m *modImporter) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(path, m.fset, p.files, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

// collectIfaces adds every interface with methods that t mentions, through
// pointers, containers, signatures and struct fields, but not through the
// underlying type of a named non-interface type.
func collectIfaces(t types.Type, out map[*types.Interface]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	if iface, ok := t.Underlying().(*types.Interface); ok {
		if iface.NumMethods() > 0 {
			out[iface] = true
		}
		return
	}
	switch t := t.(type) {
	case *types.Pointer:
		collectIfaces(t.Elem(), out, seen)
	case *types.Slice:
		collectIfaces(t.Elem(), out, seen)
	case *types.Array:
		collectIfaces(t.Elem(), out, seen)
	case *types.Map:
		collectIfaces(t.Key(), out, seen)
		collectIfaces(t.Elem(), out, seen)
	case *types.Chan:
		collectIfaces(t.Elem(), out, seen)
	case *types.Signature:
		collectIfaces(t.Params(), out, seen)
		collectIfaces(t.Results(), out, seen)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			collectIfaces(t.At(i).Type(), out, seen)
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			collectIfaces(t.Field(i).Type(), out, seen)
		}
	}
}

// funcName is pkg.Func, or pkg.Recv.Method with the receiver's pointer
// dropped.
func funcName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name += named.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}
