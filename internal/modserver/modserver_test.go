package modserver

import (
	"context"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/mod"
	"repro/internal/trajectory"
	"repro/internal/uql"
	"repro/internal/workload"
)

// startServer returns a running server with default options on a loopback
// port and its address.
func startServer(t *testing.T, store *mod.Store) (*Server, string) {
	return startServerWith(t, store, Options{})
}

// startServerWith is startServer with explicit server options.
func startServerWith(t *testing.T, store *mod.Store, o Options) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(store, nil, o)
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	return srv, l.Addr().String()
}

func seededStore(t *testing.T, n int) *mod.Store {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := workload.Generate(workload.DefaultConfig(3), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.InsertAll(trs); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestClientServerRoundTrip(t *testing.T) {
	store := seededStore(t, 20)
	_, addr := startServer(t, store)
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	n, err := c.Count()
	if err != nil || n != 20 {
		t.Fatalf("count = %d, %v", n, err)
	}
	spec, err := c.Spec()
	if err != nil || spec.Kind != mod.PDFUniform || spec.R != 0.5 {
		t.Fatalf("spec = %+v, %v", spec, err)
	}
	// Insert + get round trip.
	tr, err := trajectory.New(500, []trajectory.Vertex{{X: 1, Y: 2, T: 0}, {X: 3, Y: 4, T: 60}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert(tr); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.GetTagged(500)
	if err != nil {
		t.Fatal(err)
	}
	if got.OID != 500 || len(got.Verts) != 2 || got.Verts[1] != tr.Verts[1] {
		t.Fatalf("get = %+v", got)
	}
	// Duplicate insert surfaces the server-side error.
	if err := c.Insert(tr); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate insert: %v", err)
	}
	// Delete.
	if err := c.Delete(500); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetTagged(500); err == nil {
		t.Fatal("get after delete should fail")
	}
	if err := c.Delete(500); err == nil {
		t.Fatal("double delete should fail")
	}
}

// TestUQLOverWire: a UQL statement compiles on the client and travels as
// a Request on the query op — at every probability bound — and the
// retired uql/batch ops are unknown.
func TestUQLOverWire(t *testing.T) {
	store := seededStore(t, 25)
	_, addr := startServer(t, store)
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var reqs []engine.Request
	for _, src := range []string{
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0",
		"SELECT 2 FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(2, 1, Time) > 0",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND CertainNN(T, 1, Time) > 0",
	} {
		st, err := uql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, uql.Compile(st))
	}
	got, err := c.Query(reqs, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(1).DoBatch(context.Background(), store, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if got[i].Err != nil || got[i].IsBool != want[i].IsBool || got[i].Bool != want[i].Bool || !slices.Equal(got[i].OIDs, want[i].OIDs) {
			t.Errorf("%+v: wire %+v (%v), local %+v", reqs[i], got[i], got[i].Err, want[i])
		}
	}
	if got[0].IsBool || len(got[0].OIDs) == 0 || !got[1].IsBool || got[2].IsBool {
		t.Fatalf("answers = %+v", got)
	}
	for _, op := range []string{"uql", "batch"} {
		if _, err := c.roundTrip(Request{Op: op}); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Errorf("op %q: err=%v, want unknown op", op, err)
		}
	}
}

func TestProtocolErrors(t *testing.T) {
	store := seededStore(t, 5)
	_, addr := startServer(t, store)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Raw malformed JSON line: server answers with ok=false, keeps the
	// connection alive.
	if _, err := conn.Write([]byte("{not json}\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), `"ok":false`) {
		t.Fatalf("response = %s", buf[:n])
	}
	// Unknown op.
	if _, err := conn.Write([]byte(`{"op":"launch"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	n, err = conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "unknown op") {
		t.Fatalf("response = %s", buf[:n])
	}
	// Invalid trajectory via insert.
	if _, err := conn.Write([]byte(`{"op":"insert","oid":9,"verts":[[0,0,0]]}` + "\n")); err != nil {
		t.Fatal(err)
	}
	n, err = conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), `"ok":false`) {
		t.Fatalf("response = %s", buf[:n])
	}
}

func TestConcurrentClients(t *testing.T) {
	store := seededStore(t, 10)
	_, addr := startServer(t, store)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(base int64) {
			defer wg.Done()
			c, err := DialWith(addr, DialOptions{})
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := int64(0); i < 20; i++ {
				oid := 1000 + base*100 + i
				tr, err := trajectory.New(oid, []trajectory.Vertex{
					{X: 0, Y: 0, T: 0}, {X: 1, Y: 1, T: 60},
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.Insert(tr); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.GetTagged(oid); err != nil {
					t.Error(err)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	if n := store.Len(); n != 10+6*20 {
		t.Fatalf("store len = %d", n)
	}
}

func TestServerClose(t *testing.T) {
	store := seededStore(t, 3)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWith(store, nil, Options{})
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	c, err := DialWith(l.Addr().String(), DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != ErrServerClosed {
		t.Fatalf("Serve returned %v", err)
	}
	// Idempotent close.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Serving again after close refuses.
	if err := srv.Serve(l); err != ErrServerClosed {
		t.Fatalf("Serve after close: %v", err)
	}
	c.Close()
}

func TestPlanTripOverWire(t *testing.T) {
	store := seededStore(t, 3)
	_, addr := startServer(t, store)
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr, err := c.PlanTrip(900, []geom.Point{{X: 0, Y: 0}, {X: 3, Y: 4}}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.OID != 900 || len(tr.Verts) != 2 || tr.Verts[1].T != 15 {
		t.Fatalf("trip = %+v", tr)
	}
	// Trip was inserted server-side.
	got, _, err := c.GetTagged(900)
	if err != nil || got.Verts[1] != tr.Verts[1] {
		t.Fatalf("get after trip: %+v, %v", got, err)
	}
	// Errors surface: too few waypoints, duplicate OID, bad speed.
	if _, err := c.PlanTrip(901, []geom.Point{{X: 0, Y: 0}}, 0, 1); err == nil {
		t.Error("single waypoint accepted")
	}
	if _, err := c.PlanTrip(900, []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, 0, 1); err == nil {
		t.Error("duplicate trip OID accepted")
	}
	if _, err := c.PlanTrip(902, []geom.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}, 0, 0); err == nil {
		t.Error("zero speed accepted")
	}
}
