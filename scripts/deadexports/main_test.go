package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

func TestDeadExports(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/a/a.go": `package a

// Used is called from cmd/, Dead only from a test, Self only by itself.
func Used() {}
func Dead() {}
func Self() { Self() }

type T int

// Method is never called, Called is, Named only through an interface of
// the tree and Error only through the standard library's; Hidden has an
// unexported receiver, and Generic (never called) a type-parameter one.
func (T) Method()       {}
func (T) Called()       {}
func (*T) Named()       {}
func (T) Error() string { return "" }
func (u) Hidden()       {}
func (T[P]) Generic()   {}

type u int

var Unused, Kept = 1, 2
const unexported = 0
`,
		"internal/a/a_test.go":     "package a\n\nfunc helper() { Dead(); _ = Unused }\n",
		"cmd/x/main.go":            "package main\n\nimport \"a\"\n\ntype I interface{ Named() }\n\nfunc main() { a.Used(); a.T(0).Called(); _ = a.Kept }\n",
		"benchmark/b.go":           "package b\n\nimport \"a\"\n\nvar _ = a.Self\n",
		".hidden/h.go":             "package h\n\nvar _ = Dead\n",
		"internal/a/testdata/t.go": "package t\n\nvar _ = Unused\n",
	}
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
	if want := []string{"internal/a.Dead", "internal/a.Unused", "internal/a.T.Method", "internal/a.T.Generic"}; !slices.Equal(got, want) {
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
