package ethpart

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers of internal/ that may
// stay without a production caller, each with its reason (DESIGN.md §1).
var exportAllowlist = map[string]string{
	"graph.CSR.Validate":              "a test oracle: checks a CSR's structural invariants",
	"trace.RecordError.Unwrap":        "the errors.Unwrap protocol, reached through errors.Is/As",
	"directory.NewHintRing":           "ROADMAP item 10b: bench/ still passes NewFanout its hints argument",
	"directory.HintRing.Pushed":       "ROADMAP item 10b: goes with the hint ring",
	"directory.HintRing.Dropped":      "ROADMAP item 10b: goes with the hint ring",
	"directory.Publisher.AttachHints": "ROADMAP item 10b: goes with the hint ring",
}

// listedPackage is the part of `go list -json` this test reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// TestExportsHaveProductionCallers holds the rule that production code is
// what production reads: every exported func, method, type, const and
// package var of internal/... is referenced from a non-test file of the
// module (bench/, cmd/, examples/ or internal/), unless it is a method
// that satisfies an interface, or it is on exportAllowlist. A helper that
// only tests need lives in an export_test.go file or is recomputed from
// public data.
func TestExportsHaveProductionCallers(t *testing.T) {
	out, err := exec.Command("go", "list", "-json", "-deps", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var mod []listedPackage // module packages, dependencies first
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if !p.Standard {
			mod = append(mod, p)
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	seen := map[types.Type]bool{}
	var collect func(types.Type)
	collect = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.(type) {
		case *types.Named:
			collect(u.Underlying())
		case *types.Interface:
			if u.NumMethods() > 0 {
				ifaces = append(ifaces, u)
			}
		case *types.Pointer:
			collect(u.Elem())
		case *types.Slice:
			collect(u.Elem())
		case *types.Array:
			collect(u.Elem())
		case *types.Map:
			collect(u.Key())
			collect(u.Elem())
		case *types.Chan:
			collect(u.Elem())
		case *types.Signature:
			collect(u.Params())
			collect(u.Results())
		case *types.Tuple:
			for i := 0; i < u.Len(); i++ {
				collect(u.At(i).Type())
			}
		}
	}
	for _, p := range mod {
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Defs:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		for _, obj := range info.Uses {
			used[origin(obj)] = true
			collect(obj.Type())
		}
		for _, obj := range info.Defs {
			if obj != nil {
				collect(obj.Type())
			}
		}
		for _, tv := range info.Types {
			collect(tv.Type)
		}
	}
	for _, typ := range []types.Type{
		types.Universe.Lookup("error").Type(),
		mustLookup(t, imp, "fmt", "Stringer"),
	} {
		ifaces = append(ifaces, typ.Underlying().(*types.Interface))
	}

	// satisfies reports whether method m of named type T is a method of an
	// interface that T or *T implements: it may be called through it.
	satisfies := func(named *types.Named, m *types.Func) bool {
		for _, iface := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(iface, false, m.Pkg(), m.Name()); obj == nil {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
		return false
	}

	var unused []string
	found := map[string]bool{}
	for _, p := range mod {
		rel, ok := strings.CutPrefix(p.ImportPath, "ethpart/internal/")
		if !ok {
			continue
		}
		scope := checked[p.ImportPath].Scope()
		report := func(name string, obj types.Object) {
			found[name] = true
			if !used[obj] {
				if _, ok := exportAllowlist[name]; !ok {
					unused = append(unused, name)
				}
			}
		}
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(rel+"."+name, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !satisfies(named, m) {
					report(rel+"."+name+"."+m.Name(), m)
				}
			}
		}
	}
	for name := range exportAllowlist {
		if !found[name] {
			t.Errorf("allowlist entry %s names no exported identifier of internal/", name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d exported identifiers of internal/ have no non-test reference; delete them, "+
			"move them to an export_test.go file, or recompute them in the test from public data:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// origin maps a use of a generic instance back to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func mustLookup(t *testing.T, imp types.Importer, path, name string) types.Type {
	t.Helper()
	pkg, err := imp.Import(path)
	if err != nil {
		t.Fatal(err)
	}
	return pkg.Scope().Lookup(name).Type()
}
