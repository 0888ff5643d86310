// Command deadexports lists the exported top-level functions, types,
// variables and constants under internal/, and the exported methods of
// exported types there, that no non-test Go file uses. Every package of
// the root module is a caller, and so is every package of the benchmark/
// module: the benchmark is a caller like any other.
//
// References are resolved with go/types, so a name shared with anything
// else hides nothing: Client.Get is dead even where Store.Get is called.
// A use inside the export's own declaration (a recursive call, a method's
// receiver, a type naming itself) does not count. A method is used when a
// non-test file names it, or names an interface method it implements; one
// only the standard library calls through its own interfaces
// (ifaceMethods) is never reported. An export that stays on purpose — a
// reference implementation only tests compare against — is listed with
// its reason in allowlist.txt. The command fails on a dead export the
// allowlist does not name and on an allowlist entry that is no longer
// dead, so the list cannot go stale.
//
// Run it from the repository root:
//
//	go run ./scripts/deadexports
package main

import (
	"bytes"
	"cmp"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

//go:embed allowlist.txt
var allowlist string

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	dead, err := deadExports(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports:", err)
		os.Exit(2)
	}
	allowed, err := parseAllowlist(allowlist)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadexports: allowlist.txt:", err)
		os.Exit(2)
	}
	failed := false
	for _, d := range dead {
		if _, ok := allowed[d.name]; !ok {
			fmt.Printf("%s: %s has no non-test reference\n", d.pos, d.name)
			failed = true
		}
		delete(allowed, d.name)
	}
	for _, name := range slices.Sorted(maps.Keys(allowed)) {
		fmt.Printf("allowlist.txt: %s is referenced or gone; drop the entry\n", name)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// ifaceMethods are methods the standard library calls through an
// interface (error and errors.Is/As/Unwrap, fmt.Stringer, the json codecs,
// http.Handler), which no file of the tree has to name.
var ifaceMethods = map[string]bool{
	"Error": true, "Unwrap": true, "Is": true, "As": true, "String": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
}

// export is one exported declaration under internal/, named
// "<package dir>.<identifier>" or, for a method,
// "<package dir>.<type>.<method>".
type export struct {
	name string
	pos  token.Position
}

// deadExports loads the tree at root and returns the exports of internal/
// that no non-test file uses, in file order.
func deadExports(root string) ([]export, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	pkgs, err := load(fset, root)
	if err != nil {
		return nil, err
	}
	used := uses(pkgs)
	var dead []export
	report := func(name string, obj types.Object) {
		if !used[obj] {
			dead = append(dead, export{name, fset.Position(obj.Pos())})
		}
	}
	for _, p := range pkgs {
		rel, err := filepath.Rel(root, p.dir)
		if dir := filepath.ToSlash(rel); err == nil && strings.HasPrefix(dir, "internal/") {
			scope := p.types.Scope()
			for _, name := range scope.Names() {
				obj := scope.Lookup(name)
				if !obj.Exported() {
					continue
				}
				report(dir+"."+name, obj)
				if n := concrete(obj); n != nil {
					for m := range n.Methods() {
						if m.Exported() && !ifaceMethods[m.Name()] {
							report(dir+"."+name+"."+m.Name(), m)
						}
					}
				}
			}
		}
	}
	slices.SortStableFunc(dead, func(a, b export) int {
		return cmp.Or(strings.Compare(a.pos.Filename, b.pos.Filename), a.pos.Offset-b.pos.Offset)
	})
	return dead, nil
}

// concrete returns the defined non-interface type obj declares, or nil.
func concrete(obj types.Object) *types.Named {
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
		n, _ := tn.Type().(*types.Named)
		return n
	}
	return nil
}

// pkg is one type-checked package of the tree: its directory, its
// non-test files and what the checker resolved in them.
type pkg struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// load lists the packages of root's module, and of root/benchmark's when
// that is a module, with `go list -deps` outside any workspace, and
// type-checks the non-standard ones from their non-test files in
// dependency order. The standard library is type-checked from source
// without cgo, so its pure-Go files stand in and no C toolchain is needed.
func load(fset *token.FileSet, root string) ([]*pkg, error) {
	dirs := []string{root}
	if _, err := os.Stat(filepath.Join(root, "benchmark", "go.mod")); err == nil {
		dirs = append(dirs, filepath.Join(root, "benchmark"))
	}
	build.Default.CgoEnabled = false
	imp := imports{map[string]*types.Package{}, importer.ForCompiler(fset, "source", nil)}
	var pkgs []*pkg
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,Standard,GoFiles,Error", "./...")
		cmd.Dir, cmd.Env = dir, append(os.Environ(), "GOWORK=off", "CGO_ENABLED=0")
		out, err := cmd.Output()
		if ee := (*exec.ExitError)(nil); errors.As(err, &ee) {
			err = fmt.Errorf("%w\n%s", err, ee.Stderr)
		}
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %w", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			var l struct {
				ImportPath, Dir string
				Standard        bool
				GoFiles         []string
				Error           *struct{ Err string }
			}
			if err := dec.Decode(&l); err != nil {
				return nil, fmt.Errorf("go list in %s: %w", dir, err)
			}
			if l.Standard || imp.checked[l.ImportPath] != nil {
				continue
			}
			if l.Error != nil {
				return nil, fmt.Errorf("%s: %s", l.ImportPath, l.Error.Err)
			}
			p := &pkg{dir: l.Dir, info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}}
			for _, name := range l.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(l.Dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				p.files = append(p.files, f)
			}
			if p.types, err = (&types.Config{Importer: imp}).Check(l.ImportPath, fset, p.files, p.info); err != nil {
				return nil, err
			}
			imp.checked[l.ImportPath] = p.types
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// imports resolves the tree's own packages to their checked forms and the
// rest through the standard library's source importer.
type imports struct {
	checked map[string]*types.Package
	std     types.Importer
}

func (im imports) Import(path string) (*types.Package, error) {
	if p := im.checked[path]; p != nil {
		return p, nil
	}
	return im.std.Import(path)
}

// uses returns every object a non-test file of pkgs names outside that
// object's own declaration, and every method that implements an interface
// method among them: a call through the interface reaches it, whether the
// type declares it or has it promoted from an embedded field.
func uses(pkgs []*pkg) map[types.Object]bool {
	used := map[types.Object]bool{}
	called := map[*types.Func]*types.Interface{}
	for _, p := range pkgs {
		mark := func(n ast.Node, self types.Object) {
			ast.Inspect(n, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := p.info.Uses[id]
				switch o := obj.(type) {
				case *types.Func:
					obj = o.Origin()
					if iface := ifaceOf(o); iface != nil {
						called[o] = iface
					}
				case *types.Var:
					obj = o.Origin()
				}
				if obj != nil && obj != self {
					used[obj] = true
				}
				return true
			})
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					// The receiver list names the method's own type.
					mark(d.Type, p.info.Defs[d.Name])
					if d.Body != nil {
						mark(d.Body, p.info.Defs[d.Name])
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						var self types.Object
						if ts, ok := spec.(*ast.TypeSpec); ok {
							self = p.info.Defs[ts.Name]
						}
						mark(spec, self)
					}
				}
			}
		}
	}
	for _, p := range pkgs {
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			n := concrete(scope.Lookup(name))
			if n == nil || n.TypeParams().Len() > 0 {
				continue
			}
			for im, iface := range called {
				for _, t := range []types.Type{n, types.NewPointer(n)} {
					if types.Implements(t, iface) {
						if fn, ok := lookup(t, im); ok {
							used[fn.Origin()] = true
						}
						break
					}
				}
			}
		}
	}
	return used
}

// lookup finds t's method of im's name, declared or promoted.
func lookup(t types.Type, im *types.Func) (*types.Func, bool) {
	obj, _, _ := types.LookupFieldOrMethod(t, false, im.Pkg(), im.Name())
	fn, ok := obj.(*types.Func)
	return fn, ok
}

// ifaceOf returns the interface fn is a method of — for a method called
// through a type parameter, its constraint — or nil for a concrete method,
// a function, or a method of a generic interface (Implements needs an
// instance).
func ifaceOf(fn *types.Func) *types.Interface {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if tp, ok := t.(*types.TypeParam); ok {
		t = tp.Constraint()
	}
	if n, ok := t.(*types.Named); ok && n.TypeParams().Len() > 0 {
		return nil
	}
	iface, _ := t.Underlying().(*types.Interface)
	return iface
}

// parseAllowlist reads "<package dir>.<identifier> <reason>" lines; blank
// lines and lines starting with # are skipped. Every entry needs a reason.
func parseAllowlist(text string) (map[string]string, error) {
	out := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("line %d: %s has no reason", i+1, name)
		}
		out[name] = reason
	}
	return out, nil
}
