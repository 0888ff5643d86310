package engine

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzRequestJSON drives arbitrary bytes through the Request wire contract:
// whatever decodes must Validate without panicking, re-encode successfully
// (the router forwards Request JSON verbatim, so every decodable request
// must be forwardable), and re-encode stably (encode(decode(encode(r))) ==
// encode(r), the property the shard protocol relies on for byte-identical
// forwarding).
func FuzzRequestJSON(f *testing.F) {
	f.Add([]byte(`{"kind":"UQ31","query_oid":1,"tb":0,"te":60}`))
	f.Add([]byte(`{"kind":"UQ43","query_oid":9,"tb":-5,"te":5,"k":3,"x":0.5}`))
	f.Add([]byte(`{"kind":"UQ13","query_oid":1,"tb":0,"te":1,"oid":2,"p":0.65,"x":0.5}`))
	f.Add([]byte(`{"kind":"ALLNN@","query_oid":1,"tb":0,"te":60,"t":30,"p":1}`))
	f.Add([]byte(`{"kind":"ALLPAIRS","tb":0,"te":60}`))
	f.Add([]byte(`{"kind":"","tb":1e308,"te":-1e308,"k":-1,"x":2,"p":-3}`))
	f.Add([]byte(`{"kind":"NN@","t":30,"tb":0,"te":60,"oid":-9223372036854775808}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := json.Unmarshal(data, &req); err != nil {
			return // not a Request; nothing to check
		}
		_ = req.Validate() // must never panic, whatever the field values

		first, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("decoded request failed to re-encode: %v (request %+v)", err, req)
		}
		var again Request
		if err := json.Unmarshal(first, &again); err != nil {
			t.Fatalf("re-encoded request failed to decode: %v (json %s)", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("second encode failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("encoding not stable:\n  first  %s\n  second %s", first, second)
		}
		if req.Validate() == nil && again.Validate() != nil {
			t.Fatalf("validity lost in round trip: %+v -> %+v", req, again)
		}
	})
}
