package modserver

// Transport-security and drain tests: the static-token auth gate, TLS
// serving with the typed plaintext-dial error, context-error identity
// across the wire (the gateway's 504 mapping depends on it), and the
// graceful Shutdown drain.

import (
	"context"
	"crypto/tls"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/serve"
	"repro/internal/testcert"
)

// startTokenServer starts a token-protected server, optionally TLS.
func startTokenServer(t *testing.T, store *mod.Store, token string, tlsPair *testcert.Pair) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if tlsPair != nil {
		l = tls.NewListener(l, tlsPair.ServerConfig())
	}
	srv := NewServerWith(store, nil, Options{Token: token})
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

// TestTokenAuthGatesOps: every op on a token-protected server is refused
// with the serve.ErrUnauthorized identity until the connection authenticates;
// a wrong token is refused the same way at dial time; the right token
// unlocks the full protocol including subscriptions.
func TestTokenAuthGatesOps(t *testing.T) {
	store := seededStore(t, 20)
	_, addr := startTokenServer(t, store, "s3cret", nil)

	// Unauthenticated ops: refused and the connection closed.
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); !errors.Is(err, serve.ErrUnauthorized) {
		t.Fatalf("unauthenticated ping: %v, want serve.ErrUnauthorized", err)
	}
	c.Close()

	// A subscribe attempt is gated too (the stream never starts).
	c, err = DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	qOID := store.OIDs()[0]
	if _, _, err := c.Subscribe(engine.Request{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 0, Te: 60}); !errors.Is(err, serve.ErrUnauthorized) {
		t.Fatalf("unauthenticated subscribe: %v, want serve.ErrUnauthorized", err)
	}
	c.Close()

	// Wrong token: the dial itself fails typed.
	if _, err := DialWith(addr, DialOptions{Token: "wrong"}); !errors.Is(err, serve.ErrUnauthorized) {
		t.Fatalf("wrong-token dial: %v, want serve.ErrUnauthorized", err)
	}

	// Right token: the whole protocol works on the authed connection.
	c, err = DialWith(addr, DialOptions{Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("authed ping: %v", err)
	}
	res, err := c.Query([]engine.Request{{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 0, Te: 60}}, 0)
	if err != nil || res[0].Err != nil {
		t.Fatalf("authed query: %v / %v", err, res[0].Err)
	}
	id, _, err := c.Subscribe(engine.Request{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 0, Te: 60})
	if err != nil {
		t.Fatalf("authed subscribe: %v", err)
	}
	if err := c.Unsubscribe(id); err != nil {
		t.Fatalf("authed unsubscribe: %v", err)
	}
}

// TestNoTokenServerAcceptsAuth: an auth op against an unprotected server
// succeeds (clients can send the token unconditionally).
func TestNoTokenServerAcceptsAuth(t *testing.T) {
	store := seededStore(t, 5)
	_, addr := startServer(t, store)
	c, err := DialWith(addr, DialOptions{Token: "anything"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestTLSServingAndPlaintextTyped: a TLS+token server serves the full
// protocol to a properly configured client, and a plaintext dial against
// it fails with the serve.ErrTLSRequired identity (the server answers the
// confused client in plaintext) rather than a JSON syntax error or a
// silent close.
func TestTLSServingAndPlaintextTyped(t *testing.T) {
	pair, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	store := seededStore(t, 20)
	_, addr := startTokenServer(t, store, "s3cret", &pair)

	c, err := DialWith(addr, DialOptions{TLS: pair.ClientConfig(), Token: "s3cret"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	qOID := store.OIDs()[0]
	res, err := c.Query([]engine.Request{{Kind: engine.KindUQ31, QueryOID: qOID, Tb: 0, Te: 60}}, 0)
	if err != nil || res[0].Err != nil {
		t.Fatalf("TLS query: %v / %v", err, res[0].Err)
	}

	// Plaintext against TLS: typed refusal.
	pc, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if err := pc.Ping(); !errors.Is(err, serve.ErrTLSRequired) {
		t.Fatalf("plaintext ping against TLS server: %v, want serve.ErrTLSRequired", err)
	}
}

// TestDeadlineIdentityOverWire: a server-side deadline expiry keeps its
// context.DeadlineExceeded identity at the client — the regression the
// HTTP layer's 504 mapping rides on (it used to arrive as a generic
// string).
func TestDeadlineIdentityOverWire(t *testing.T) {
	store := seededStore(t, 400)
	_, addr := startServer(t, store)
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Enough distinct (query, window) pairs that every request pays a
	// fresh O(N) preprocessing: far beyond a 1 ms deadline at N=400.
	oids := store.OIDs()
	var reqs []engine.Request
	for i := 0; i < 64; i++ {
		reqs = append(reqs, engine.Request{
			Kind: engine.KindUQ31, QueryOID: oids[i], Tb: 0, Te: 30 + float64(i)/100,
		})
	}
	if _, err := c.Query(reqs, time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("query deadline identity: %v, want context.DeadlineExceeded", err)
	}

	// The connection survives the coded failure.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after coded deadline: %v", err)
	}
}

// TestShutdownDrains: Shutdown lets an in-flight query finish and reply,
// then disconnects the drained connections; afterwards the listener is
// closed and new work is refused.
func TestShutdownDrains(t *testing.T) {
	store := seededStore(t, 400)
	srv, addr := startServer(t, store)
	c, err := DialWith(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A batch heavy enough to still be evaluating when Shutdown lands.
	oids := store.OIDs()
	var reqs []engine.Request
	for i := 0; i < 32; i++ {
		reqs = append(reqs, engine.Request{
			Kind: engine.KindUQ31, QueryOID: oids[i], Tb: 0, Te: 30 + float64(i)/100,
		})
	}
	type reply struct {
		res []engine.Result
		err error
	}
	got := make(chan reply, 1)
	go func() {
		res, err := c.Query(reqs, 0)
		got <- reply{res, err}
	}()
	// Give the server a moment to read the request line so the drain has
	// an in-flight request to preserve (not just an idle connection).
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-got
	if r.err != nil {
		t.Fatalf("in-flight query severed by shutdown: %v", r.err)
	}
	for i, res := range r.res {
		if res.Err != nil {
			t.Fatalf("in-flight result %d: %v", i, res.Err)
		}
	}
	// The connection was drained and closed; new requests fail.
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded after shutdown")
	}
	// The listener is closed too.
	if _, err := DialWith(addr, DialOptions{}); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}
