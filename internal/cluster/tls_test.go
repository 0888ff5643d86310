package cluster_test

// Transport-security tests for the remote shard path: a TLS+token shard
// set must answer byte-identically to the single engine, and the two
// misconfigurations an operator will actually hit — plaintext dial
// against a TLS shard, wrong token — must fail with typed, permanent
// errors instead of burning the retry budget.

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"testing"

	"repro/internal/cluster"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/serve"
	"repro/internal/testcert"
)

const shardToken = "shard-secret"

// startTLSShardServers splits the store across n TLS+token modservers and
// returns remote shards configured to reach them.
func startTLSShardServers(t testing.TB, store *mod.Store, n int, pair testcert.Pair) []cluster.Shard {
	t.Helper()
	stores, err := cluster.SplitStore(store, n, cluster.Hash{})
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]cluster.Shard, n)
	for i, st := range stores {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := modserver.NewServerWith(st, nil, modserver.Options{Token: shardToken})
		go srv.Serve(tls.NewListener(l, pair.ServerConfig()))
		t.Cleanup(func() { srv.Close() })
		remote := cluster.NewRemoteShardWith(fmt.Sprintf("tls-%d", i), l.Addr().String(),
			cluster.RemoteOptions{TLS: pair.ClientConfig(), Token: shardToken})
		t.Cleanup(func() { remote.Close() })
		shards[i] = remote
	}
	return shards
}

// TestTLSShardEquivalence: the full request suite over a 2-shard TLS+token
// cluster answers byte-identically to the single engine — encryption and
// auth change nothing about the protocol above them.
func TestTLSShardEquivalence(t *testing.T) {
	pair, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	store, trs := buildStore(t, 200, equivR, equivSeed)
	reqs := equivRequests(trs)
	want := singleAnswers(t, store, reqs)
	router, err := cluster.NewRouter(context.Background(),
		startTLSShardServers(t, store, 2, pair), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := router.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkSame(t, "tls/2", reqs, want, got)
}

// TestPlaintextDialAgainstTLSShard: a RemoteShard with no TLS config
// against a TLS shard fails with the typed serve.ErrTLSRequired —
// permanent, so the retry budget is not spent redialing a config error.
func TestPlaintextDialAgainstTLSShard(t *testing.T) {
	pair, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	store, _ := buildStore(t, 10, equivR, equivSeed)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := modserver.NewServerWith(store, nil, modserver.Options{})
	go srv.Serve(tls.NewListener(l, pair.ServerConfig()))
	t.Cleanup(func() { srv.Close() })

	retries := 0
	shard := cluster.NewRemoteShardWith("plain", l.Addr().String(), cluster.RemoteOptions{
		OnRetry: func(string, int, error) { retries++ },
	})
	t.Cleanup(func() { shard.Close() })
	if _, err := shard.Spec(context.Background()); !errors.Is(err, serve.ErrTLSRequired) {
		t.Fatalf("plaintext spec against TLS shard: %v, want serve.ErrTLSRequired", err)
	}
	if retries != 0 {
		t.Fatalf("typed TLS mismatch burned %d retries; want 0", retries)
	}
}

// TestWrongShardTokenTyped: a wrong (or missing) token fails shard calls
// with the typed serve.ErrUnauthorized, again without retries.
func TestWrongShardTokenTyped(t *testing.T) {
	store, _ := buildStore(t, 10, equivR, equivSeed)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := modserver.NewServerWith(store, nil, modserver.Options{Token: shardToken})
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	for _, token := range []string{"wrong", ""} {
		retries := 0
		shard := cluster.NewRemoteShardWith("badtoken", l.Addr().String(), cluster.RemoteOptions{
			Token:   token,
			OnRetry: func(string, int, error) { retries++ },
		})
		if _, err := shard.Spec(context.Background()); !errors.Is(err, serve.ErrUnauthorized) {
			t.Fatalf("token %q: spec err=%v, want serve.ErrUnauthorized", token, err)
		}
		if retries != 0 {
			t.Fatalf("token %q: unauthorized burned %d retries; want 0", token, retries)
		}
		shard.Close()
	}
}
