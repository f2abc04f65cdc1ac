package clio_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the declarations that may stay without a non-test
// use, each with the reason. A key is "pkgpath.Func", "pkgpath.Type.Method"
// or "pkgpath.Type.field".
var exportAllowlist = map[string]string{
	"clio/internal/logapi.LocateUnique": "the §2.1 locate by client timestamp and sequence number, " +
		"the reconciliation read client.AmbiguousError sends its callers to",
	"clio/internal/client.New": "a Client over an established connection (net.Pipe in tests): " +
		"the one constructor that takes no address",
	"clio/internal/server.New": "NewStore(shard.Single(svc)) for one service, " +
		"the in-process server of twenty test call sites",

	// logapi.Service is the one interface every deployment offers (§2):
	// it stays whole, and so do the remote client's methods that fill it.
	"clio/internal/logapi.Service.Stat":     uniform,
	"clio/internal/logapi.Service.SetPerms": uniform,
	"clio/internal/logapi.Service.Retire":   uniform,
	"clio/internal/logapi.Service.ReadAt":   uniform,
	"clio/internal/logapi.Service.Force":    uniform,
	"clio/internal/client.Client.SetPerms":  uniform,
	"clio/internal/client.Client.ReadAt":    uniform,

	// The fault registry is the test seam of the fault model: its readouts
	// are what a test asserts a fault point on, and the hold that lets a
	// test park a hit at a point builds on them.
	"clio/internal/faults.Registry.Hits":  "how often a point was reached: the fault model's test seam",
	"clio/internal/faults.Registry.Fired": "how often a point injected its fault: the fault model's test seam",
}

// uniform is the reason the §2 uniform interface's methods stay.
const uniform = "the §2 uniform interface: every deployment offers the whole log-service surface"

// stdlibMethods are method names the standard library calls through an
// interface the module never names (fmt's Stringer, errors' Unwrap), so a
// method so named has a caller the scan cannot see.
var stdlibMethods = map[string]bool{"String": true, "Unwrap": true}

// TestNoTestOnlyExports fails when a function, method, interface method or
// struct field declared in a non-test file of the module is used by no
// non-test code of the module or of bench/. Code that only tests reach is
// given a caller, deleted, moved into a _test.go file or listed in
// exportAllowlist. The rules are deadDecls'.
func TestNoTestOnlyExports(t *testing.T) {
	m, err := repoModules()
	if err != nil {
		t.Fatal(err)
	}
	decls, err := deadDecls(m, func(pkg string) bool { return m.moduleOf(pkg).path == "clio" })
	if err != nil {
		t.Fatal(err)
	}
	if len(m.declared) == 0 {
		t.Fatal("nothing declared in the module: run the test from the module root")
	}
	for _, d := range decls {
		if _, ok := exportAllowlist[d.key]; !ok {
			t.Errorf("%s (%s): no non-test code uses it: give it a caller, delete it, or allowlist it with a reason", d.key, d.pos)
		}
	}
	for key := range exportAllowlist {
		if !m.declared[key] {
			t.Errorf("exportAllowlist names %s, which is not declared any more", key)
		}
	}
}

// TestDeadDeclsFixture runs the scan over testdata/deadcode, a module with
// one case for each of deadDecls' rules.
func TestDeadDeclsFixture(t *testing.T) {
	m, err := loadModules([]goModule{{"fixture", filepath.Join("testdata", "deadcode")}})
	if err != nil {
		t.Fatal(err)
	}
	decls, err := deadDecls(m, func(string) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range decls {
		got = append(got, d.key)
	}
	want := []string{
		"fixture/lib.Idle.Unused",  // an interface method no one calls
		"fixture/lib.Idler.Unused", // implements it, and is not called either
		"fixture/lib.Loner.Shared", // shares its name with Used.Shared, which is called
		"fixture/lib.Used.unread",  // a field nothing reads or writes
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// goModule is a module the scan loads: its path and its directory.
type goModule struct{ path, dir string }

// goPkg is one package directory of a loaded module.
type goPkg struct {
	path, dir string
	files     []*ast.File // the non-test files, as the build would select them
	testFiles []*ast.File
	types     *types.Package
	info      *types.Info
	err       error // from type checking
}

// loaded is a set of modules, parsed and (on demand) type-checked.
type loaded struct {
	fset     *token.FileSet
	mods     []goModule
	pkgs     map[string]*goPkg // by import path
	order    []*goPkg          // in directory walk order
	std      types.Importer
	declared map[string]bool // every key deadDecls saw, filled by it
}

// repoModules loads this module and the benchmark's, whose uses count too,
// once per test binary.
var repoModules = sync.OnceValues(func() (*loaded, error) {
	return loadModules([]goModule{{"clio", "."}, {"clio/bench", "bench"}})
})

// buildContext selects files as a CGO_ENABLED=0 build of this platform
// does. The standard library is then type-checked from its pure-Go files,
// and the C toolchain never runs.
var buildContext = func() *build.Context {
	build.Default.CgoEnabled = false
	return &build.Default
}()

// loadModules parses every package of the modules.
func loadModules(mods []goModule) (*loaded, error) {
	l := &loaded{fset: token.NewFileSet(), mods: mods, pkgs: map[string]*goPkg{}, declared: map[string]bool{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	for _, mod := range mods {
		err := filepath.WalkDir(mod.dir, func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			name := d.Name()
			if p != mod.dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			rel, _ := filepath.Rel(mod.dir, p)
			ip := path.Join(mod.path, filepath.ToSlash(rel))
			if owner := l.moduleOf(ip); owner == nil || owner.path != mod.path {
				return filepath.SkipDir // another module's directory
			}
			bp, err := buildContext.ImportDir(p, 0)
			if _, none := err.(*build.NoGoError); none {
				return nil
			}
			if err != nil {
				return err
			}
			pkg := &goPkg{path: ip, dir: p}
			parse := func(names []string) ([]*ast.File, error) {
				var files []*ast.File
				for _, n := range names {
					f, err := parser.ParseFile(l.fset, filepath.Join(p, n), nil, parser.SkipObjectResolution)
					if err != nil {
						return nil, err
					}
					files = append(files, f)
				}
				return files, nil
			}
			if pkg.files, err = parse(bp.GoFiles); err != nil {
				return err
			}
			if pkg.testFiles, err = parse(append(bp.TestGoFiles, bp.XTestGoFiles...)); err != nil {
				return err
			}
			l.pkgs[ip] = pkg
			l.order = append(l.order, pkg)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

// moduleOf is the loaded module an import path belongs to, the longest
// match, or nil for the standard library.
func (l *loaded) moduleOf(ip string) *goModule {
	var best *goModule
	for i, m := range l.mods {
		if (ip == m.path || strings.HasPrefix(ip, m.path+"/")) && (best == nil || len(m.path) > len(best.path)) {
			best = &l.mods[i]
		}
	}
	return best
}

// Import type-checks a module package on first use, or hands a standard
// library path to the source importer.
func (l *loaded) Import(ip string) (*types.Package, error) {
	if l.moduleOf(ip) == nil {
		return l.std.Import(ip)
	}
	pkg := l.pkgs[ip]
	if pkg == nil {
		return nil, fmt.Errorf("package %s is not in the loaded modules", ip)
	}
	if pkg.info == nil {
		pkg.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: l}
		pkg.types, pkg.err = conf.Check(ip, l.fset, pkg.files, pkg.info)
	}
	return pkg.types, pkg.err
}

// deadDecl is one finding: its key and its position.
type deadDecl struct{ key, pos string }

// deadDecls type-checks every non-test package of the loaded modules and
// returns the declarations in the packages report selects that no non-test
// code uses, sorted by key:
//
//   - a function is used when an identifier outside its own body resolves
//     to it;
//   - a method, of a concrete type or of an interface, is used when a
//     selector outside its own body resolves to it (a method promoted
//     through embedding resolves to the embedded type's), or when a type
//     whose method set holds it implements an interface whose method of
//     the same name is called; every method of a standard library
//     interface the module names counts as called, and so does every
//     method named in stdlibMethods;
//   - a struct field is used when an identifier resolves to it (a
//     selector or a composite literal's key) or a composite literal lists
//     its struct's values without keys. Embedded fields are not reported:
//     what they carry in is used through their methods and fields.
//
// main and init functions, and blank names, are never reported.
func deadDecls(l *loaded, report func(pkg string) bool) ([]deadDecl, error) {
	for _, p := range l.order {
		if _, err := l.Import(p.path); err != nil {
			return nil, fmt.Errorf("type check %s: %w", p.path, err)
		}
	}

	used := map[types.Object]bool{}
	called := map[string][]*types.Interface{}   // the interfaces of called methods, by method name
	embedders := map[*types.Func][]types.Type{} // method to the types that promote it
	for _, p := range l.order {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ms := types.NewMethodSet(types.NewPointer(tn.Type()))
			for i := 0; i < ms.Len(); i++ {
				if len(ms.At(i).Index()) > 1 {
					fn := ms.At(i).Obj().(*types.Func)
					embedders[fn] = append(embedders[fn], tn.Type())
				}
			}
		}
		for _, f := range p.files {
			var self types.Object
			var visit func(n ast.Node) bool
			visit = func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					self = p.info.Defs[x.Name]
					if x.Recv != nil {
						ast.Inspect(x.Recv, visit)
					}
					ast.Inspect(x.Type, visit)
					if x.Body != nil {
						ast.Inspect(x.Body, visit)
					}
					self = nil
					return false
				case *ast.CompositeLit:
					st, ok := p.info.Types[x].Type.Underlying().(*types.Struct)
					if ok && len(x.Elts) > 0 {
						if _, keyed := x.Elts[0].(*ast.KeyValueExpr); !keyed {
							for i := 0; i < st.NumFields(); i++ {
								used[st.Field(i).Origin()] = true
							}
						}
					}
				case *ast.Ident:
					obj := p.info.Uses[x]
					switch o := obj.(type) {
					case *types.Func:
						obj = o.Origin()
						if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							called[o.Name()] = append(called[o.Name()], recv.Type().Underlying().(*types.Interface))
						}
					case *types.Var:
						obj = o.Origin()
					case *types.TypeName:
						if iface, ok := o.Type().Underlying().(*types.Interface); ok && (o.Pkg() == nil || l.moduleOf(o.Pkg().Path()) == nil) {
							for i := 0; i < iface.NumMethods(); i++ {
								called[iface.Method(i).Name()] = append(called[iface.Method(i).Name()], iface)
							}
						}
					}
					if obj != nil && obj != self {
						used[obj] = true
					}
				}
				return true
			}
			ast.Inspect(f, visit)
		}
	}

	implemented := func(fn *types.Func) bool {
		if stdlibMethods[fn.Name()] {
			return true
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		for _, iface := range called[fn.Name()] {
			for _, t := range append([]types.Type{recv}, embedders[fn]...) {
				if types.Implements(t, iface) || (!types.IsInterface(t) && types.Implements(types.NewPointer(t), iface)) {
					// An interface implements its own: only another
					// interface's call counts.
					if iface != recv.Underlying() {
						return true
					}
				}
			}
		}
		return false
	}

	var dead []deadDecl
	for _, p := range l.order {
		if !report(p.path) {
			continue
		}
		for _, f := range p.files {
			check := func(key string, id *ast.Ident, isUsed func(types.Object) bool) {
				if id.Name == "_" {
					return
				}
				l.declared[key] = true
				if obj := p.info.Defs[id]; obj != nil && !isUsed(obj) {
					dead = append(dead, deadDecl{key, l.fset.Position(id.Pos()).String()})
				}
			}
			plain := func(obj types.Object) bool { return used[obj] }
			method := func(obj types.Object) bool { return used[obj] || implemented(obj.(*types.Func)) }
			var typeName string
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					if x.Recv == nil {
						if x.Name.Name != "main" && x.Name.Name != "init" {
							check(p.path+"."+x.Name.Name, x.Name, plain)
						}
					} else {
						check(p.path+"."+recvType(x.Recv.List[0].Type)+"."+x.Name.Name, x.Name, method)
					}
				case *ast.TypeSpec:
					typeName = x.Name.Name
				case *ast.StructType:
					for _, fld := range x.Fields.List {
						for _, id := range fld.Names {
							check(p.path+"."+typeName+"."+id.Name, id, plain)
						}
					}
				case *ast.InterfaceType:
					for _, m := range x.Methods.List {
						for _, id := range m.Names {
							check(p.path+"."+typeName+"."+id.Name, id, method)
						}
					}
				}
				return true
			})
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].key < dead[j].key })
	return dead, nil
}

// recvType is the name of a method's receiver type, without pointer or
// type parameters.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
