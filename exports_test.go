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
	"golden.Object":                   "test support: the one re-pin implementation (DESIGN §10)",
	"golden.List":                     "test support: the one re-pin implementation (DESIGN §10)",
	"golden.Cells.Check":              "test support: the one re-pin implementation (DESIGN §10)",
	"golden.Cells.Done":               "test support: the one re-pin implementation (DESIGN §10)",
	"golden.Text":                     "test support: the one re-pin implementation (DESIGN §10)",
}

// fieldAllowlist names the exported struct fields of internal/ that may
// stay without a production reader, each with its reason (DESIGN.md §1).
// An entry that names a type covers every field of it.
var fieldAllowlist = map[string]string{
	"sim.WindowStat":         "simulator output: a window's moves, migrated slots, repartition flag and shard count, pinned by the sim, trigger and autoscale tests",
	"sim.ResizeEvent":        "simulator output: the autoscaler's firing log (when, k → k′, moves), pinned by the sim and opsim autoscale tests",
	"workload.Block":         "generator output: NextBlock's number, time and receipts, read by the generator and trace end-to-end tests",
	"workload.TxMix.Airdrop": "ROADMAP item 12 (the era mix fix): eraAction draws airdrops as the mix's remainder, so only the era tables set it until the draw reads it",
}

// setterAllowlist names the exported struct fields of internal/ that
// production may read without any non-test file setting them, each with
// its reason (DESIGN.md §1).
var setterAllowlist = map[string]string{
	"dirserve.ServerConfig.Hints": "ROADMAP item 10b: goes with the hint ring",
}

// listedPackage is the part of `go list -json` this test reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// moduleScan is the type-checked non-test code of the module: what it
// references, which struct fields it reads and which it sets, and the
// interfaces it sees.
type moduleScan struct {
	mod        []listedPackage // module packages, dependencies first
	checked    map[string]*types.Package
	used       map[types.Object]bool
	fieldRead  map[types.Object]bool
	fieldWrite map[types.Object]bool
	ifaces     []*types.Interface
}

// scanModule type-checks every non-test file of the module.
func scanModule(t *testing.T) *moduleScan {
	t.Helper()
	out, err := exec.Command("go", "list", "-json", "-deps", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	s := &moduleScan{
		checked:    map[string]*types.Package{},
		used:       map[types.Object]bool{},
		fieldRead:  map[types.Object]bool{},
		fieldWrite: map[types.Object]bool{},
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if !p.Standard {
			s.mod = append(s.mod, p)
		}
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := s.checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

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
				s.ifaces = append(s.ifaces, u)
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
	for _, p := range s.mod {
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
		s.checked[p.ImportPath] = pkg
		writes, addressed := map[*ast.Ident]bool{}, map[*ast.Ident]bool{}
		for _, f := range files {
			markFieldWrites(f, writes, addressed)
		}
		for id, obj := range info.Uses {
			s.used[origin(obj)] = true
			collect(obj.Type())
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				// &x.F hands the field to a callee that may do either:
				// flag.IntVar sets it, a method on *F reads it.
				if writes[id] || addressed[id] {
					s.fieldWrite[origin(v)] = true
				}
				if !writes[id] {
					s.fieldRead[origin(v)] = true
				}
			}
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
		s.ifaces = append(s.ifaces, typ.Underlying().(*types.Interface))
	}
	return s
}

// markFieldWrites records the identifiers of f that write a struct field
// rather than read it: the field named by an assignment target or an
// ++/-- operand, the field whose value receives an Add, Store, Swap or
// CompareAndSwap call (the atomic writes), and the key of a composite
// literal. The field of an &x.F operand goes to addressed.
func markFieldWrites(f *ast.File, writes, addressed map[*ast.Ident]bool) {
	field := func(e ast.Expr) *ast.Ident {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			return sel.Sel
		}
		return nil
	}
	target := func(e ast.Expr) {
		if id := field(e); id != nil {
			writes[id] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if id := field(n.X); n.Op == token.AND && id != nil {
				addressed[id] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.CallExpr:
			if call, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				switch call.Sel.Name {
				case "Add", "Store", "Swap", "CompareAndSwap":
					target(call.X)
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						writes[id] = true
					}
				}
			}
		}
		return true
	})
}

// TestExportsHaveProductionCallers holds the rule that production code is
// what production reads: every exported func, method, type, const and
// package var of internal/... is referenced from a non-test file of the
// module (bench/, cmd/, examples/ or internal/), unless it is a method
// that satisfies an interface, or it is on exportAllowlist. A helper that
// only tests need lives in an export_test.go file or is recomputed from
// public data.
func TestExportsHaveProductionCallers(t *testing.T) {
	s := scanModule(t)

	// satisfies reports whether method m of named type T is a method of an
	// interface that T or *T implements: it may be called through it.
	satisfies := func(named *types.Named, m *types.Func) bool {
		for _, iface := range s.ifaces {
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
	s.eachType(func(name string, obj types.Object, named *types.Named) {
		report := func(name string, obj types.Object) {
			found[name] = true
			if !s.used[obj] {
				if _, ok := exportAllowlist[name]; !ok {
					unused = append(unused, name)
				}
			}
		}
		if obj.Exported() {
			report(name, obj)
		}
		if named == nil || types.IsInterface(named) {
			return
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Exported() && !satisfies(named, m) {
				report(name+"."+m.Name(), m)
			}
		}
	})
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

// TestExportedFieldsHaveProductionReaders holds the same rule for struct
// fields: every exported field of a struct type declared in internal/... is
// read by a non-test file of the module, unless it or its type is on
// fieldAllowlist. Writing a field is not reading it: a counter production
// keeps up to date for tests alone fails here.
func TestExportedFieldsHaveProductionReaders(t *testing.T) {
	s := scanModule(t)
	var unread []string
	found := map[string]bool{}
	s.eachField(func(typeName, field string, f *types.Var) {
		found[typeName], found[field] = true, true
		_, typeListed := fieldAllowlist[typeName]
		if _, ok := fieldAllowlist[field]; ok || typeListed || s.fieldRead[f] {
			return
		}
		unread = append(unread, field)
	})
	checkAllowlist(t, "field allowlist", fieldAllowlist, found)
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("%d exported struct fields of internal/ are written but never read by non-test code; "+
			"delete them with their upkeep, or recompute what the test checks from an outcome:\n\t%s",
			len(unread), strings.Join(unread, "\n\t"))
	}
}

// TestExportedFieldsHaveProductionSetters holds the rule that every knob
// has a production setter: an exported field of a struct type declared in
// internal/... that a non-test file reads is also set by one — assigned,
// incremented, atomically stored, keyed in a composite literal or passed
// as &x.F — unless it is on setterAllowlist. A field only tests set is a
// switch production always sees at its zero value, so the branch it
// selects runs in tests alone.
func TestExportedFieldsHaveProductionSetters(t *testing.T) {
	s := scanModule(t)
	var unset []string
	found := map[string]bool{}
	s.eachField(func(_, field string, f *types.Var) {
		found[field] = true
		_, listed := setterAllowlist[field]
		if listed && s.fieldWrite[f] {
			t.Errorf("setter allowlist entry %s has a production setter; drop the entry", field)
		}
		if !listed && s.fieldRead[f] && !s.fieldWrite[f] {
			unset = append(unset, field)
		}
	})
	checkAllowlist(t, "setter allowlist", setterAllowlist, found)
	sort.Strings(unset)
	if len(unset) > 0 {
		t.Errorf("%d exported struct fields of internal/ are read by non-test code but set only by tests; "+
			"delete them with the branches they select, or set them from production:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

// checkAllowlist fails every entry of list that names nothing found or
// gives no reason.
func checkAllowlist(t *testing.T, what string, list map[string]string, found map[string]bool) {
	t.Helper()
	for name, reason := range list {
		if !found[name] {
			t.Errorf("%s entry %s names no exported struct field or struct type of internal/", what, name)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s entry %s has no reason", what, name)
		}
	}
}

// eachField calls fn for every exported, non-embedded field of a struct
// type of internal/..., with the type's and the field's names as eachType
// gives them. Embedded fields are skipped: code reaches them through the
// fields and methods they promote.
func (s *moduleScan) eachField(fn func(typeName, field string, f *types.Var)) {
	s.eachType(func(name string, _ types.Object, named *types.Named) {
		if named == nil {
			return
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			if f := st.Field(i); f.Exported() && !f.Embedded() {
				fn(name, name+"."+f.Name(), f)
			}
		}
	})
}

// eachType calls fn for every package-scope object of internal/..., named
// pkg.Name relative to internal/; named is its defined type, or nil when
// the object is not a (non-alias) type.
func (s *moduleScan) eachType(fn func(name string, obj types.Object, named *types.Named)) {
	for _, p := range s.mod {
		rel, ok := strings.CutPrefix(p.ImportPath, "ethpart/internal/")
		if !ok {
			continue
		}
		scope := s.checked[p.ImportPath].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			var named *types.Named
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named, _ = tn.Type().(*types.Named)
			}
			fn(rel+"."+name, obj, named)
		}
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
