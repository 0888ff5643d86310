package serve

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/api/openapi"
)

// TestOpenAPICodeEnum: the spec's ApiError.code enum is serve's code
// table, in its order, and the Error description lists every code under
// the status the gateway answers it with (Classify's).
func TestOpenAPICodeEnum(t *testing.T) {
	spec := string(openapi.Spec)
	i := strings.Index(spec, "\n    ApiError:\n")
	if i < 0 {
		t.Fatal("spec has no ApiError schema")
	}
	const key = "enum: "
	j := strings.Index(spec[i:], key)
	if j < 0 {
		t.Fatal("ApiError schema has no enum")
	}
	line := spec[i+j+len(key):]
	line = line[:strings.IndexByte(line, '\n')]
	var got []string
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("enum %q: %v", line, err)
	}
	want := codeNames()
	if !slices.Equal(got, want) {
		t.Fatalf("spec enum %v, serve codes %v", got, want)
	}

	i = strings.Index(spec, "\n    Error:\n")
	j = strings.Index(spec[i:], "content:")
	if i < 0 || j < 0 {
		t.Fatal("spec has no Error response")
	}
	desc := strings.Join(strings.Fields(spec[i:i+j]), " ")
	desc = desc[strings.Index(desc, "400: "):]
	desc = desc[:strings.IndexByte(desc, '.')]
	listed := map[string]int{}
	for _, group := range strings.Split(desc, "; ") {
		status, names, _ := strings.Cut(group, ": ")
		n, err := strconv.Atoi(status)
		if err != nil {
			t.Fatalf("status group %q: %v", group, err)
		}
		for _, name := range strings.Split(names, ", ") {
			listed[name] = n
		}
	}
	for _, code := range want {
		if _, status := Classify(Rebuild(code, "x")); listed[code] != status {
			t.Errorf("code %s: the spec lists status %d, the gateway answers %d", code, listed[code], status)
		}
	}
	if len(listed) != len(got) {
		t.Errorf("the Error description lists %d codes, the enum %d", len(listed), len(got))
	}
}
