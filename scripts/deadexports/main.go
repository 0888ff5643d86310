// Command deadexports lists the exported top-level functions, types,
// variables and constants under internal/, and the exported methods of
// exported types there, that no non-test Go file in the repository
// references by name. Files under benchmark/ count as non-test: the
// benchmark module is a caller like any other.
//
// Matching is by identifier name alone, so a name shared with anything
// else in the tree hides a candidate; it never reports a used one. A
// method an interface of the tree names counts as used; one only a
// standard-library interface calls (ifaceMethods) is never reported. An
// export that stays on purpose — a reference implementation only tests
// compare against — is listed with its reason in allowlist.txt. The
// command fails on a dead export the allowlist does not name and on an
// allowlist entry that is no longer dead, so the list cannot go stale.
//
// Run it from the repository root:
//
//	go run ./scripts/deadexports
package main

import (
	_ "embed"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
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

// deadExports parses every Go file below root and returns the exports of
// internal/ that no non-test file names, in file order.
func deadExports(root string) ([]export, error) {
	fset := token.NewFileSet()
	var exports []export
	used := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		decls, methods := declaredNames(f)
		if strings.HasPrefix(rel, "internal/") {
			pkg := strings.TrimSuffix(rel, "/"+filepath.Base(rel))
			for _, id := range decls {
				if id.IsExported() {
					exports = append(exports, export{name: pkg + "." + id.Name, pos: fset.Position(id.Pos())})
				}
			}
			for _, m := range methods {
				if ast.IsExported(m.typ) && m.id.IsExported() && !ifaceMethods[m.id.Name] {
					exports = append(exports, export{name: pkg + "." + m.typ + "." + m.id.Name, pos: fset.Position(m.id.Pos())})
				}
			}
		}
		for _, m := range methods {
			decls = append(decls, m.id)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !slices.Contains(decls, id) {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	var dead []export
	for _, e := range exports {
		if !used[e.name[strings.LastIndexByte(e.name, '.')+1:]] {
			dead = append(dead, e)
		}
	}
	return dead, nil
}

// method is a method declaration: its receiver's type name and its own.
type method struct {
	typ string
	id  *ast.Ident
}

// declaredNames returns the identifiers a file declares at top level —
// functions, types, variables and constants — and its methods.
func declaredNames(f *ast.File) (out []*ast.Ident, methods []method) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				out = append(out, d.Name)
			} else {
				methods = append(methods, method{recvType(d.Recv.List[0].Type), d.Name})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name)
				case *ast.ValueSpec:
					out = append(out, s.Names...)
				}
			}
		}
	}
	return out, methods
}

// recvType returns the type name of a method receiver: T, *T, T[P] or
// *T[P].
func recvType(x ast.Expr) string {
	for {
		switch t := x.(type) {
		case *ast.StarExpr:
			x = t.X
		case *ast.IndexExpr:
			x = t.X
		case *ast.IndexListExpr:
			x = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
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
