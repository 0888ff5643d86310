package engine

import (
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"repro/api/openapi"
)

// TestOpenAPIKindEnum: the spec's Request.kind enum is the engine's kind
// table, in its order — a kind the server rejects cannot be documented,
// and one it accepts cannot be missing.
func TestOpenAPIKindEnum(t *testing.T) {
	spec := string(openapi.Spec)
	i := strings.Index(spec, "\n    Request:\n")
	if i < 0 {
		t.Fatal("spec has no Request schema")
	}
	const key = "enum: "
	j := strings.Index(spec[i:], key)
	if j < 0 {
		t.Fatal("Request schema has no enum")
	}
	line := spec[i+j+len(key):]
	line = line[:strings.IndexByte(line, '\n')]
	var got []Kind
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("enum %q: %v", line, err)
	}
	if want := allKinds(); !slices.Equal(got, want) {
		t.Fatalf("spec enum %v, engine kinds %v", got, want)
	}
}
