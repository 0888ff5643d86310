package repro_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchmarkModule makes tier-1 see benchmark/: it is a Go module of its
// own (it imports repro/internal/... through a replace directive), so
// `go build ./... && go test ./...` at the root neither compiles nor runs
// it, and an internal API change could break the regression benchmark
// silently. This vets it and runs its smoke test (< 10 s) against the
// current tree.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and smoke-runs the nested benchmark module")
	}
	for _, args := range [][]string{
		{"vet", "-C", "benchmark", "./..."},
		{"test", "-C", "benchmark", "./..."},
	} {
		cmd := exec.Command("go", args...)
		cmd.Env = append(os.Environ(), "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
