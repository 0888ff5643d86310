package modserver

import (
	"bufio"
	"encoding/json"
	"errors"
	"net"
	"testing"

	"repro/internal/serve"
	"repro/internal/trajectory"
)

// fakeServer answers every request line on a net.Pipe with reply.
func fakeServer(t *testing.T, reply Response) *Client {
	t.Helper()
	line, err := json.Marshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	ours, theirs := net.Pipe()
	go func() {
		sc := bufio.NewScanner(theirs)
		for sc.Scan() {
			if _, err := theirs.Write(append(line, '\n')); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { ours.Close(); theirs.Close() })
	return NewClient(ours)
}

// TestClientSpecRefusesEmptyReply: a spec reply without a spec is a
// protocol error, not a panic — cluster.NewRouter probes every shard with
// it, so one misbehaving shard must not take the gateway down.
func TestClientSpecRefusesEmptyReply(t *testing.T) {
	if _, err := fakeServer(t, Response{OK: true}).Spec(); !errors.Is(err, serve.ErrProtocol) {
		t.Fatalf("Spec on an empty reply = %v, want ErrProtocol", err)
	}
}

// TestClientGetRefusesAnotherOID: a get reply for an OID other than the
// one asked for is a protocol error — the router resolves the query
// trajectory through it, so a wrong reply would silently become the query.
func TestClientGetRefusesAnotherOID(t *testing.T) {
	verts := serve.EncodeVerts([]trajectory.Vertex{{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 10}})
	cli := fakeServer(t, Response{OK: true, OID: 8, Verts: verts})
	if tr, _, err := cli.GetTagged(7); !errors.Is(err, serve.ErrProtocol) {
		t.Fatalf("GetTagged(7) answered for 8 = %v, %v; want ErrProtocol", tr, err)
	}
	if tr, _, err := cli.GetTagged(8); err != nil || tr.OID != 8 {
		t.Fatalf("GetTagged(8) = %v, %v", tr, err)
	}
}
