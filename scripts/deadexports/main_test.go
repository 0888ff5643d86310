package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// tree is a module with a benchmark/ module beside it: test files,
// testdata/ and dot directories are no callers, the benchmark module is
// one, a use inside the export's own declaration does not count, an
// interface call reaches the methods that implement it, and a generic
// method called on an instance is used.
var tree = map[string]string{
	"go.mod": `module example.com/tree

go 1.24
`,
	"internal/a/a.go": `package a

// Used is called from cmd/, Dead only from a test, Self only by itself
// and the benchmark module, Rec only by itself.
func Used() {}
func Dead() {}
func Self() { Self() }
func Rec(n int) int {
	if n == 0 {
		return 0
	}
	return Rec(n - 1)
}

// T names itself in its own methods' receivers and bodies only; New
// returns it, which is a use.
type T int

func New() *T { return new(T) }

// Method is never called, Called is, Named only through an interface of
// the tree and Error only through the standard library's; Hidden has an
// unexported receiver.
func (T) Method()       {}
func (T) Called()       {}
func (*T) Named()       {}
func (T) Error() string { return "" }
func (t T) Twice() T    { return t.Twice() }
func (u) Hidden()       {}

type u int

// G is generic: Called is called on an instance, Generic never.
type G[P any] struct{}

func (G[P]) Called()  {}
func (G[P]) Generic() {}

var Unused, Kept = 1, 2

const unexported = 0
`,
	"internal/a/a_test.go": `package a

func helper() { Dead(); _ = Unused; T(0).Method() }
`,
	"internal/a/testdata/t.go": `package t

var _ = Unused
`,
	"cmd/x/main.go": `package main

import "example.com/tree/internal/a"

type I interface{ Named() }

func main() {
	a.Used()
	a.T(0).Called()
	var i I = a.New()
	i.Named()
	a.G[int]{}.Called()
	_ = a.Kept
}
`,
	"benchmark/go.mod": `module example.com/tree/benchmark

go 1.24

require example.com/tree v0.0.0

replace example.com/tree => ../
`,
	"benchmark/b.go": `package b

import "example.com/tree/internal/a"

var _ = a.Self
`,
	".hidden/h.go": `package h

var _ = Dead
`,
}

// shared has two types sharing a method name, of which only Store's is
// called, and a method only a call through an interface reaches.
var shared = map[string]string{
	"go.mod": `module example.com/shared

go 1.24
`,
	"internal/s/s.go": `package s

type Store struct{}

func (Store) Get(oid int64) int64 { return oid }

type Client struct{}

func (Client) Get(oid int64) int64 { return oid }

// Shard is what Local implements; cmd/ calls Search through it alone.
type Shard interface{ Search() int }

type Local struct{}

func (Local) Search() int { return 0 }

// Shards returns one Local behind the interface.
func Shards() []Shard { return []Shard{Local{}} }

var _ = Client{}
`,
	"cmd/y/main.go": `package main

import "example.com/shared/internal/s"

func main() {
	_ = s.Store{}.Get(1)
	for _, sh := range s.Shards() {
		_ = sh.Search()
	}
}
`,
}

// deadNames writes files into a fresh directory and runs the checker
// over it.
func deadNames(t *testing.T, files map[string]string) []string {
	t.Helper()
	root := t.TempDir()
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dead, err := deadExports(root)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range dead {
		got = append(got, d.name)
	}
	return got
}

func TestDeadExports(t *testing.T) {
	want := []string{
		"internal/a.Dead", "internal/a.Rec",
		"internal/a.T.Method", "internal/a.T.Twice",
		"internal/a.G.Generic", "internal/a.Unused",
	}
	if got := deadNames(t, tree); !slices.Equal(got, want) {
		t.Fatalf("dead = %v, want %v", got, want)
	}
}

// TestDeadExportsResolvesByType: matching by name finds nothing dead in
// shared; resolving by type finds Client.Get, and not Local.Search.
func TestDeadExportsResolvesByType(t *testing.T) {
	if got, want := deadNames(t, shared), []string{"internal/s.Client.Get"}; !slices.Equal(got, want) {
		t.Fatalf("dead = %v, want %v", got, want)
	}
}

func TestParseAllowlist(t *testing.T) {
	got, err := parseAllowlist("# comment\n\ninternal/a.Dead kept as the oracle\n")
	if err != nil || len(got) != 1 || got["internal/a.Dead"] != "kept as the oracle" {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := parseAllowlist("internal/a.Dead\n"); err == nil {
		t.Fatal("an entry without a reason was accepted")
	}
}
