// Package diet_test is the code diet's gate: it type-checks the module's
// non-test code with the standard library alone (go list for the package
// graph, go/parser and go/types for the rest) and fails on
//
//   - (a) an exported identifier of an internal/ package that no non-test
//     code references outside its own declaration (benchmark/, cmd/ and
//     examples/ count as callers; a method that satisfies an interface
//     counts as referenced);
//   - (b) an exported field of a …Config, …Options or …Spec struct of an
//     internal/ package or the root package that no non-test code sets to
//     a value other than the one its own Default…/withDefaults function
//     gives it;
//   - (c) an exported field of an internal/ struct that non-test code only
//     increments (++, +=) or zeroes, and that no code reads (a selector
//     with the field's name in a test file counts as a read, so a test
//     oracle stays);
//   - the structural rules: one codec (internal/frame), the four …E
//     forwarders benchmark/ calls and no others, the simulator and its
//     baselines off the defense and its telemetry, and examples/ on the
//     public API.
//
// A finding that must stay goes on the allowlist with its reason; the
// one entry left is the event loop's oracle, eventsim.Engine.Step.
// The package has no non-test code, so it adds nothing to the line count
// it guards.
package diet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed is a finding the gate tolerates, with why and the ROADMAP item
// whose change removes it. An entry that matches no finding fails the
// gate, so the list only shrinks.
type allowed struct {
	kind, name, reason, item string
}

var allowlist = []allowed{
	// The one entry: the event loop's oracle. netsim's
	// TestInlineMatchesSteppedSchedule compares the inline schedule
	// against a Step-driven run, and nothing outside tests drives Step.
	{"method", "eventsim.Engine.Step", "the stepped schedule the inline event loop is checked against", "10"},
}

// TestDiet runs every rule over the module and prints one
// "file:line kind name" line per finding outside the allowlist.
func TestDiet(t *testing.T) {
	prog := load(t, "../..")
	findings := append(prog.unreferenced(), prog.unsetFields()...)
	findings = append(findings, prog.unreadCounters()...)
	findings = append(findings, prog.structural()...)
	matched := make([]bool, len(allowlist))
	var bad []string
	for _, f := range findings {
		ok := false
		for i, a := range allowlist {
			if a.kind == f.kind && a.name == f.name {
				matched[i], ok = true, true
			}
		}
		if !ok {
			bad = append(bad, f.String())
		}
	}
	for i, a := range allowlist {
		switch {
		case a.reason == "" || a.item == "":
			t.Errorf("allowlist entry %s %s needs a reason and the ROADMAP item that removes it", a.kind, a.name)
		case !matched[i]:
			t.Errorf("stale allowlist entry %s %s: the gate no longer finds it, so delete the entry", a.kind, a.name)
		}
	}
	if len(bad) > 0 {
		t.Errorf("%d findings (delete the code, make the knob a constant, or add an allowlist entry with its reason and ROADMAP item):\n%s",
			len(bad), strings.Join(bad, "\n"))
	}
}

// TestDietFixture runs rules (a), (b) and (c) over testdata/fixture, a
// module that plants each shape a name-only scan gets wrong, and wants
// exactly the planted violations.
func TestDietFixture(t *testing.T) {
	prog := load(t, "testdata/fixture")
	var got []string
	for _, f := range append(append(prog.unreferenced(), prog.unsetFields()...), prog.unreadCounters()...) {
		got = append(got, f.String())
	}
	want := []string{
		"internal/queue/queue.go:12 func queue.Unused",
		"internal/ring/ring.go:16 method ring.SPSC.Pending",
		"internal/queue/red.go:9 field queue.REDConfig.MinThreshold",
		"internal/queue/red.go:11 field queue.REDConfig.MeanPacketSize",
		"internal/queue/red.go:13 field queue.REDConfig.Weight",
		"internal/queue/queue.go:18 counter queue.FIFO.Enqueued",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("fixture findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// finding is one violation at a position relative to the module root.
type finding struct {
	pos        string
	line       int
	kind, name string
}

func (f finding) String() string {
	if f.line == 0 { // a package-level finding
		return fmt.Sprintf("%s %s %s", f.pos, f.kind, f.name)
	}
	return fmt.Sprintf("%s:%d %s %s", f.pos, f.line, f.kind, f.name)
}

// listed is the part of `go list -json` the gate reads.
type listed struct {
	ImportPath, Dir, Name, Export string
	GoFiles, IgnoredGoFiles       []string
	TestGoFiles, XTestGoFiles     []string
	Imports                       []string
	Module                        *struct {
		Path string
		Main bool
	}
}

// pkg is one type-checked package of the module.
type pkg struct {
	listed
	rel   string      // import path relative to the module, "" for the root
	files []*ast.File // the files the build uses, which are type-checked
	other []*ast.File // non-test files the build constraints leave out
	tests []*ast.File
	types *types.Package
	info  *types.Info
}

type program struct {
	root   string
	module string
	fset   *token.FileSet
	pkgs   []*pkg // the module's packages, dependencies first
}

// load lists the module at dir with its dependencies and type-checks
// every module package from source, in dependency order; the standard
// library comes from the export data go list builds.
func load(t *testing.T, dir string) *program {
	t.Helper()
	root, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	prog := &program{root: root, fset: token.NewFileSet()}
	exports := map[string]string{}
	byPath := map[string]*pkg{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var l listed
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		if l.Module == nil || !l.Module.Main {
			exports[l.ImportPath] = l.Export
			continue
		}
		prog.module = l.Module.Path
		p := &pkg{listed: l}
		prog.pkgs = append(prog.pkgs, p)
		byPath[l.ImportPath] = p
	}
	gc := importer.ForCompiler(prog.fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := byPath[path]; p != nil {
			return p.types, nil
		}
		return gc.Import(path)
	})
	for _, p := range prog.pkgs {
		p.rel = strings.TrimPrefix(strings.TrimPrefix(p.ImportPath, prog.module), "/")
		parse := func(names []string) (files, tests []*ast.File) {
			for _, name := range names {
				f, err := parser.ParseFile(prog.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasSuffix(name, "_test.go") {
					tests = append(tests, f)
				} else {
					files = append(files, f)
				}
			}
			return files, tests
		}
		p.files, _ = parse(p.GoFiles)
		p.other, p.tests = parse(p.IgnoredGoFiles)
		_, tests := parse(append(append([]string{}, p.TestGoFiles...), p.XTestGoFiles...))
		p.tests = append(p.tests, tests...)
		if len(p.files) == 0 {
			continue
		}
		p.info = &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Instances:  map[*ast.Ident]types.Instance{},
		}
		conf := types.Config{Importer: imp}
		if p.types, err = conf.Check(p.ImportPath, prog.fset, p.files, p.info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
	}
	return prog
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// at makes a finding at pos.
func (prog *program) at(pos token.Pos, kind, name string) finding {
	p := prog.fset.Position(pos)
	rel, err := filepath.Rel(prog.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return finding{pos: filepath.ToSlash(rel), line: p.Line, kind: kind, name: name}
}

// internal reports whether p is one of the module's internal/ packages.
func (p *pkg) internal() bool {
	return p.types != nil && (p.rel == "internal" || strings.HasPrefix(p.rel, "internal/"))
}

// origin maps an instantiated function or field to its generic
// declaration, so a use through SPSC[int] counts for SPSC[T].
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unreferenced is rule (a).
func (prog *program) unreferenced() []finding {
	used := prog.references()
	prog.markInterfaceMethods(used)
	var out []finding
	for _, p := range prog.pkgs {
		if !p.internal() {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				out = append(out, prog.at(obj.Pos(), kindOf(obj), p.Name+"."+name))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !used[m] {
					out = append(out, prog.at(m.Pos(), "method", p.Name+"."+name+"."+m.Name()))
				}
			}
		}
	}
	sortFindings(out)
	return out
}

func kindOf(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// references collects every object some non-test code names, leaving out
// an object's mentions of itself: a function's recursive calls, and a
// type's own declaration, receivers and method bodies.
func (prog *program) references() map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, p := range prog.pkgs {
		if p.info == nil {
			continue
		}
		// own holds the declarations in which an object's name does
		// not count as a reference to it.
		own := map[types.Object][]ast.Node{}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name]
					own[fn] = append(own[fn], d)
					if tn := recvType(p.info, d); tn != nil {
						own[tn] = append(own[tn], d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							tn := p.info.Defs[ts.Name]
							own[tn] = append(own[tn], ts)
						}
					}
				}
			}
		}
	uses:
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			for _, n := range own[obj] {
				if id.Pos() >= n.Pos() && id.Pos() < n.End() {
					continue uses
				}
			}
			used[obj] = true
		}
	}
	return used
}

// recvType is the type a method declaration is declared on, nil for a
// function.
func recvType(info *types.Info, d *ast.FuncDecl) *types.TypeName {
	fn, ok := info.Defs[d.Name].(*types.Func)
	if !ok || d.Recv == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// markInterfaceMethods marks, for every module type that implements an
// interface the module can see (its own, the ones its imports declare,
// and error), the methods that implementation consists of. A generic type
// is checked through the instantiations the module writes.
func (prog *program) markInterfaceMethods(used map[types.Object]bool) {
	var ifaces []*types.Interface
	seenIface := map[string]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		if key := types.TypeString(t, nil); !seenIface[key] {
			seenIface[key] = true
			ifaces = append(ifaces, it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenPkg := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seenPkg[tp] {
			return
		}
		seenPkg[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, dep := range tp.Imports() {
			walk(dep)
		}
	}
	var concrete []types.Type
	seenType := map[string]bool{}
	addConcrete := func(t types.Type) {
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil || !prog.inModule(named.Obj().Pkg()) {
			return
		}
		if _, iface := named.Underlying().(*types.Interface); iface {
			return
		}
		if named.TypeParams().Len() > 0 && named.TypeArgs().Len() == 0 {
			return
		}
		if key := types.TypeString(t, nil); !seenType[key] {
			seenType[key] = true
			concrete = append(concrete, t)
		}
	}
	for _, p := range prog.pkgs {
		if p.info == nil {
			continue
		}
		walk(p.types)
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
				addConcrete(tn.Type())
			}
		}
		for _, tv := range p.info.Types {
			addIface(tv.Type)
		}
		for _, inst := range p.info.Instances {
			addConcrete(inst.Type)
		}
	}
	for _, t := range concrete {
		for _, it := range ifaces {
			recv := t
			if !types.Implements(recv, it) {
				if recv = types.NewPointer(t); !types.Implements(recv, it) {
					continue
				}
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(recv, false, m.Pkg(), m.Name()); obj != nil {
					used[origin(obj)] = true
				}
			}
		}
	}
}

func (prog *program) inModule(tp *types.Package) bool {
	for _, p := range prog.pkgs {
		if p.types == tp {
			return true
		}
	}
	return false
}

// configType reports whether a struct named name is one of rule (b)'s.
func configType(name string) bool {
	for _, suffix := range []string{"Config", "Options", "Spec"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return false
}

// unsetFields is rule (b). A field counts as set where non-test code
// writes it (a keyed or positional composite literal, an assignment, an
// increment, or taking its address, as a flag or a patch table does) with
// anything but a constant equal to a default; writing a field's field
// sets both. Its type's own defaults
// functions (Default… or withDefaults, declared beside it) give the
// defaults instead, except that a parameter they store as it is counts
// as set: the callers choose it.
func (prog *program) unsetFields() []finding {
	type fieldInfo struct {
		owner    *types.TypeName
		defaults []constant.Value
		varies   bool // a default that is not a constant
		set      bool
	}
	fields := map[*types.Var]*fieldInfo{}
	var order []*types.Var
	for _, p := range prog.pkgs {
		if p.types == nil || p.rel != "" && !p.internal() {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !configType(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					fields[f] = &fieldInfo{owner: tn}
					order = append(order, f)
				}
			}
		}
	}
	type write struct {
		field *types.Var
		value ast.Expr // nil: not a single known value
		info  *types.Info
		// inDefaults is set inside the field's own defaults function;
		// param is then whether value is one of its parameters.
		inDefaults, param bool
	}
	var writes []write
	for _, p := range prog.pkgs {
		if p.info == nil {
			continue
		}
		info := p.info
		for _, file := range p.files {
			for _, decl := range file.Decls {
				owners, params := defaultsOf(info, decl)
				record := func(field *types.Var, value ast.Expr) {
					field = origin(field).(*types.Var)
					fi := fields[field]
					if fi == nil {
						return
					}
					w := write{field: field, value: value, info: info}
					if owners[fi.owner] {
						w.inDefaults = true
						if id, ok := unparen(value).(*ast.Ident); ok {
							_, w.param = params[info.Uses[id]]
						}
					}
					writes = append(writes, w)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, ok := typeOf(info, n).Underlying().(*types.Struct)
						if !ok {
							return true
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok {
									if f, ok := info.Uses[key].(*types.Var); ok && f.IsField() {
										record(f, kv.Value)
									}
								}
							} else if i < st.NumFields() {
								record(st.Field(i), elt)
							}
						}
					case *ast.AssignStmt:
						for i, lhs := range n.Lhs {
							var value ast.Expr
							if (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) && len(n.Lhs) == len(n.Rhs) {
								value = n.Rhs[i]
							}
							writeTarget(info, lhs, value, record)
						}
					case *ast.IncDecStmt:
						writeTarget(info, n.X, nil, record)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							writeTarget(info, n.X, nil, record)
						}
					}
					return true
				})
			}
		}
	}
	for _, w := range writes {
		if !w.inDefaults || w.param {
			continue
		}
		fi := fields[w.field]
		if v := w.info.Types[w.value].Value; w.value != nil && v != nil {
			fi.defaults = append(fi.defaults, v)
		} else {
			fi.varies = true
		}
	}
	for _, w := range writes {
		fi := fields[w.field]
		switch {
		case w.inDefaults:
			fi.set = fi.set || w.param
		case w.value == nil || fi.varies:
			fi.set = true
		default:
			fi.set = fi.set || !isDefault(w.info.Types[w.value], fi.defaults)
		}
	}
	var out []finding
	for _, f := range order {
		if fi := fields[f]; !fi.set {
			out = append(out, prog.at(f.Pos(), "field", fi.owner.Pkg().Name()+"."+fi.owner.Name()+"."+f.Name()))
		}
	}
	sortFindings(out)
	return out
}

// unreadCounters is rule (c). A use of a field counts as a counter write
// when it is the target of ++, of += or of an assignment of the constant
// zero; any other use in non-test code, a composite literal key
// included, reads it.
func (prog *program) unreadCounters() []finding {
	inTests := map[string]bool{}
	for _, p := range prog.pkgs {
		for _, f := range append(append([]*ast.File{}, p.tests...), p.other...) {
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					inTests[sel.Sel.Name] = true
				}
				return true
			})
		}
	}
	counted, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, p := range prog.pkgs {
		if p.info == nil {
			continue
		}
		writes := map[*ast.Ident]bool{}
		mark := func(e ast.Expr, count bool) {
			sel, ok := unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				writes[sel.Sel] = true
				if count {
					counted[origin(s.Obj()).(*types.Var)] = true
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IncDecStmt:
					if n.Tok == token.INC {
						mark(n.X, true)
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if n.Tok == token.ADD_ASSIGN {
							mark(lhs, true)
						} else if n.Tok == token.ASSIGN && len(n.Rhs) == len(n.Lhs) {
							if v := p.info.Types[n.Rhs[i]].Value; v != nil && isNumeric(v) && constant.Sign(v) == 0 {
								mark(lhs, false)
							}
						}
					}
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !writes[id] {
				read[origin(v).(*types.Var)] = true
			}
		}
	}
	var out []finding
	for _, p := range prog.pkgs {
		if !p.internal() {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && counted[f] && !read[f] && !inTests[f.Name()] {
					out = append(out, prog.at(f.Pos(), "counter", p.Name+"."+name+"."+f.Name()))
				}
			}
		}
	}
	sortFindings(out)
	return out
}

// defaultsOf returns, when decl is a defaults function (named Default…,
// default… or withDefaults, with a …Config/Options/Spec result or
// receiver of its own package), the types it defaults and its parameters.
func defaultsOf(info *types.Info, decl ast.Decl) (map[*types.TypeName]bool, map[types.Object]bool) {
	d, ok := decl.(*ast.FuncDecl)
	if !ok {
		return nil, nil
	}
	name := d.Name.Name
	if name != "withDefaults" && !strings.HasPrefix(name, "Default") && !strings.HasPrefix(name, "default") {
		return nil, nil
	}
	fn, ok := info.Defs[d.Name].(*types.Func)
	if !ok {
		return nil, nil
	}
	sig := fn.Type().(*types.Signature)
	owners := map[*types.TypeName]bool{}
	addOwner := func(t types.Type) {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj().Pkg() == fn.Pkg() && configType(named.Obj().Name()) {
			owners[named.Obj()] = true
		}
	}
	if sig.Recv() != nil {
		addOwner(sig.Recv().Type())
	}
	for i := 0; i < sig.Results().Len(); i++ {
		addOwner(sig.Results().At(i).Type())
	}
	params := map[types.Object]bool{}
	for i := 0; i < sig.Params().Len(); i++ {
		params[sig.Params().At(i)] = true
	}
	return owners, params
}

// writeTarget records the fields an assignment to e writes: the selected
// field itself with value, and every field on the path to it as changed.
func writeTarget(info *types.Info, e ast.Expr, value ast.Expr, record func(*types.Var, ast.Expr)) {
	for e != nil {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e, value = x.X, nil
		case *ast.SelectorExpr:
			if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				record(sel.Obj().(*types.Var), value)
			}
			e, value = x.X, nil
		default:
			return
		}
	}
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

// isDefault reports whether a write of tv leaves the field at one of its
// defaults: a constant equal to one, or, for a field its defaults never
// set, the zero value.
func isDefault(tv types.TypeAndValue, defaults []constant.Value) bool {
	if len(defaults) == 0 {
		if tv.IsNil() {
			return true
		}
		if tv.Value == nil {
			return false
		}
		switch tv.Value.Kind() {
		case constant.Bool:
			return !constant.BoolVal(tv.Value)
		case constant.String:
			return constant.StringVal(tv.Value) == ""
		case constant.Int, constant.Float:
			return constant.Sign(tv.Value) == 0
		}
		return false
	}
	if tv.Value == nil {
		return false
	}
	for _, d := range defaults {
		if d.Kind() == tv.Value.Kind() || (isNumeric(d) && isNumeric(tv.Value)) {
			if constant.Compare(d, token.EQL, tv.Value) {
				return true
			}
		}
	}
	return false
}

func isNumeric(v constant.Value) bool {
	k := v.Kind()
	return k == constant.Int || k == constant.Float
}

// structural checks the module's layout rules. Like the greps they
// replace, they read every .go file of a package, whatever its build
// constraints.
func (prog *program) structural() []finding {
	var out []finding
	// One codec: internal/frame spells out byte orders and checksums for
	// the formats of ours; internal/pcap and internal/packet parse
	// formats that are not ours, and the fleet envelope's CRC covers its
	// own header.
	codecHome := map[string][]string{
		"encoding/binary": {"internal/frame/", "internal/pcap/", "internal/packet/"},
		"hash/crc32":      {"internal/frame/", "internal/fleet/wire.go"},
	}
	// One constructor per type: the only exported …E functions are the
	// four one-line forwarders benchmark/ calls.
	forwarders := map[string]bool{
		"accturbo.go NewDefenseE":         false,
		"accturbo.go NewRealTimeDefenseE": false,
		"internal/core/turbo.go AttachE":  false,
		"internal/jaqen/jaqen.go AttachE": false,
	}
	// Layering: the simulator and the baselines it runs import neither
	// the defense nor its real-time accounting; the examples use only the
	// public API, so they build outside this module.
	sim := map[string]bool{"internal/eventsim": true, "internal/queue": true, "internal/netsim": true,
		"internal/traffic": true, "internal/acc": true, "internal/jaqen": true}
	for _, p := range prog.pkgs {
		for _, f := range append(append([]*ast.File{}, p.files...), p.other...) {
			file := prog.at(f.Pos(), "", "").pos
			for _, spec := range f.Imports {
				path := strings.Trim(spec.Path.Value, `"`)
				homes, ok := codecHome[path]
				home := !ok
				for _, h := range homes {
					home = home || strings.HasPrefix(file, h)
				}
				if !home {
					out = append(out, prog.at(spec.Pos(), "codec", path))
				}
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() || len(fd.Name.Name) < 2 || !strings.HasSuffix(fd.Name.Name, "E") {
					continue
				}
				key := file + " " + fd.Name.Name
				if _, ok := forwarders[key]; !ok {
					out = append(out, prog.at(fd.Pos(), "forwarder", fd.Name.Name))
				}
				forwarders[key] = true
			}
		}
		// No package grows a private enc/dec pair again, in its tests
		// either.
		if strings.HasPrefix(p.rel, "internal/") {
			for _, f := range append(append(append([]*ast.File{}, p.files...), p.other...), p.tests...) {
				for _, d := range f.Decls {
					if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
						for _, s := range gd.Specs {
							if ts := s.(*ast.TypeSpec); ts.Name.Name == "enc" || ts.Name.Name == "dec" {
								out = append(out, prog.at(ts.Pos(), "codec", ts.Name.Name))
							}
						}
					}
				}
			}
		}
		for _, imp := range p.Imports {
			rel := strings.TrimPrefix(imp, prog.module+"/")
			switch {
			case sim[p.rel] && (rel == "internal/core" || rel == "internal/telemetry"):
				out = append(out, finding{pos: p.rel, kind: "layering", name: imp})
			case strings.HasPrefix(p.rel, "examples/") && strings.HasPrefix(rel, "internal/"):
				out = append(out, finding{pos: p.rel, kind: "example-import", name: imp})
			}
		}
	}
	for key, found := range forwarders {
		if !found {
			file, name, _ := strings.Cut(key, " ")
			out = append(out, finding{pos: file, kind: "forwarder-missing", name: name})
		}
	}
	sortFindings(out)
	return out
}

func sortFindings(fs []finding) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].pos != fs[j].pos {
			return fs[i].pos < fs[j].pos
		}
		if fs[i].line != fs[j].line {
			return fs[i].line < fs[j].line
		}
		return fs[i].name < fs[j].name
	})
}
