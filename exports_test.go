package clio_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods under internal/
// that may stay without a non-test caller, each with the reason. A key is
// "pkgpath.Func" or "pkgpath.Type.Method".
var exportAllowlist = map[string]string{
	"clio/internal/logapi.LocateUnique": "the §2.1 locate by client timestamp and sequence number, " +
		"the reconciliation read client.AmbiguousError sends its callers to",
	"clio/internal/client.New": "a Client over an established connection (net.Pipe in tests): " +
		"the one constructor that takes no address",
	"clio/internal/server.New": "NewStore(shard.Single(svc)) for one service, " +
		"the in-process server of twenty test call sites",
}

// stdlibMethods are method names the standard library calls through an
// interface, so a method so named has a caller the scan cannot see.
var stdlibMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// TestNoTestOnlyExports fails when an exported function or method declared
// in a non-test file under internal/ is used by no identifier in the
// module's non-test Go code (bench/ included) apart from its own
// declaration. Code that only tests reach is given a caller, deleted, moved
// into a _test.go file or listed in exportAllowlist.
//
// A package function is used when some file names it, qualified by its
// import or bare within its package. A method is used when a selector or an
// interface method anywhere in non-test code has its name: the scan does
// not type-check, so a name shared with another type's method counts.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ key, method, pos string }
	var decls []decl
	s := &useScan{funcs: map[string]bool{}, methods: map[string]bool{}}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s.pkg = path.Join("clio", filepath.ToSlash(filepath.Dir(p)))
		s.imports = map[string]string{}
		for _, is := range f.Imports {
			ip, _ := strconv.Unquote(is.Path.Value)
			name := path.Base(ip)
			if is.Name != nil {
				name = is.Name.Name
			}
			s.imports[name] = ip
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				s.self, s.selfRecv, s.selfMethod = "", "", ""
				s.collect(d)
				continue
			}
			key := s.pkg + "." + fn.Name.Name
			s.self, s.selfRecv, s.selfMethod = key, "", ""
			if fn.Recv != nil {
				key = s.pkg + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
				s.self, s.selfMethod = "", fn.Name.Name
				if names := fn.Recv.List[0].Names; len(names) > 0 {
					s.selfRecv = names[0].Name
				}
				s.collect(fn.Recv)
			}
			if fn.Name.IsExported() && strings.HasPrefix(s.pkg, "clio/internal/") {
				decls = append(decls, decl{key, s.selfMethod, fset.Position(fn.Pos()).String()})
			}
			s.collect(fn.Type)
			if fn.Body != nil {
				s.collect(fn.Body)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported function found under internal/: run the test from the module root")
	}

	var unused []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		used := s.funcs[d.key]
		if d.method != "" {
			used = s.methods[d.method] || stdlibMethods[d.method]
		}
		if _, ok := exportAllowlist[d.key]; !used && !ok {
			unused = append(unused, d.key+" ("+d.pos+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported, but no non-test code uses it: give it a caller, delete it, or allowlist it with a reason", u)
	}
	for key := range exportAllowlist {
		if !declared[key] {
			t.Errorf("exportAllowlist names %s, which is not declared any more", key)
		}
	}
}

// useScan collects the identifier uses of one file at a time.
type useScan struct {
	pkg     string            // import path of the file's package
	imports map[string]string // the file's import names to paths

	// The declaration being scanned, whose uses of itself (recursion) do
	// not count: a package function's key, or a method's receiver and name.
	self, selfRecv, selfMethod string

	funcs   map[string]bool // "pkgpath.Name" of every package-level name used
	methods map[string]bool // every selector and interface method name
}

func (s *useScan) collect(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			id, _ := x.X.(*ast.Ident)
			if id != nil {
				if ip, ok := s.imports[id.Name]; ok {
					s.funcs[ip+"."+x.Sel.Name] = true
					return false
				}
			}
			if id == nil || id.Name != s.selfRecv || x.Sel.Name != s.selfMethod {
				s.methods[x.Sel.Name] = true
			}
			s.collect(x.X)
			return false
		case *ast.InterfaceType:
			for _, m := range x.Methods.List {
				for _, name := range m.Names {
					s.methods[name.Name] = true
				}
			}
		case *ast.Ident:
			if key := s.pkg + "." + x.Name; key != s.self {
				s.funcs[key] = true
			}
		}
		return true
	})
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
