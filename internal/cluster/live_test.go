package cluster_test

// Live-layer cluster tests: Router.Ingest routing by OID hash (over local
// and remote shards), ZoneProfile, and the router-backed continuous hub
// answering and diffing identically to a single-store hub over the union
// of the shards.

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/continuous"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/modserver"
	"repro/internal/serve"
	"repro/internal/trajectory"
)

// liveStore builds the scene every live test shares: query object 1
// crossing the plane, 2 shadowing it, 3/4/5 far away, plans covering
// [0, 10] with one vertex per time unit.
func liveStore(t testing.TB) *mod.Store {
	t.Helper()
	st, err := mod.NewUniformStore(0.5)
	if err != nil {
		t.Fatal(err)
	}
	for oid, y := range map[int64]float64{1: 0, 2: 1, 3: 50, 4: 100, 5: 150} {
		verts := make([]trajectory.Vertex, 11)
		for i := range verts {
			verts[i] = trajectory.Vertex{X: float64(i), Y: y, T: float64(i)}
		}
		tr, err := trajectory.New(oid, verts)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Insert(tr); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

func rev(oid int64, pts ...[3]float64) mod.Update {
	u := mod.Update{OID: oid}
	for _, p := range pts {
		u.Verts = append(u.Verts, trajectory.Vertex{X: p[0], Y: p[1], T: p[2]})
	}
	return u
}

// liveScript is the scripted batch sequence the equivalence checks run.
func liveScript() [][]mod.Update {
	return [][]mod.Update{
		// Steer 3 next to the query.
		{rev(3, [3]float64{6, 1, 6}, [3]float64{8, 0.5, 8}, [3]float64{10, 0.5, 10})},
		// Irrelevant far wiggles.
		{rev(4, [3]float64{7, 99, 7}, [3]float64{10, 99, 10}), rev(5, [3]float64{7, 151, 7}, [3]float64{10, 151, 10})},
		// New object lands on top of the query; 3 swerves away.
		{
			{OID: 9, Verts: []trajectory.Vertex{{X: 0, Y: 0.5, T: 0}, {X: 10, Y: 0.5, T: 10}}},
			rev(3, [3]float64{6, 80, 5.5}, [3]float64{10, 80, 10}),
		},
		// The query itself is revised, then the new object revises too.
		{
			rev(1, [3]float64{7, 0.3, 7}, [3]float64{10, 0.3, 10}),
			rev(9, [3]float64{7, 30, 7}, [3]float64{10, 30, 10}),
		},
	}
}

func liveRequests() []engine.Request {
	return []engine.Request{
		{Kind: engine.KindUQ31, QueryOID: 1, Tb: 0, Te: 10},
		{Kind: engine.KindUQ41, QueryOID: 1, Tb: 0, Te: 10, K: 2},
		{Kind: engine.KindUQ11, QueryOID: 1, Tb: 0, Te: 10, OID: 3},
		{Kind: engine.KindUQ33, QueryOID: 2, Tb: 0, Te: 8, X: 0.25},
	}
}

func sameEvents(t *testing.T, label string, got, want []continuous.Event, gotIDs, wantIDs map[int64]int64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d events vs %d:\n got %+v\nwant %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		g, w := got[i], want[i]
		if gotIDs[g.SubID] != wantIDs[w.SubID] {
			t.Fatalf("%s event %d: sub mismatch (%d vs %d)", label, i, g.SubID, w.SubID)
		}
		if g.Seq != w.Seq || g.Kind != w.Kind || g.IsBool != w.IsBool || g.Bool != w.Bool ||
			!reflect.DeepEqual(g.Added, w.Added) || !reflect.DeepEqual(g.Removed, w.Removed) ||
			!reflect.DeepEqual(g.OIDs, w.OIDs) {
			t.Fatalf("%s event %d differs:\n got %+v\nwant %+v", label, i, g, w)
		}
	}
}

// runLiveEquivalence drives the script against a router hub and a
// single-store reference hub, comparing every event batch and every
// answer after every step.
func runLiveEquivalence(t *testing.T, label string, router *cluster.Router) {
	t.Helper()
	ctx := context.Background()
	refStore := liveStore(t)
	ref := continuous.NewEngineHub(refStore, engine.New(2))
	hub := cluster.NewRouterHub(router)

	reqs := liveRequests()
	gotIDs := make(map[int64]int64) // router sub id → request index
	wantIDs := make(map[int64]int64)
	for i, req := range reqs {
		gid, gres, err := hub.Subscribe(ctx, req)
		if err != nil {
			t.Fatalf("%s: subscribe %d: %v", label, i, err)
		}
		wid, wres, err := ref.Subscribe(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs[gid], wantIDs[wid] = int64(i), int64(i)
		if gres.IsBool != wres.IsBool || gres.Bool != wres.Bool || !reflect.DeepEqual(gres.OIDs, wres.OIDs) {
			t.Fatalf("%s: initial answer %d differs: %+v vs %+v", label, i, gres, wres)
		}
	}
	for step, batch := range liveScript() {
		_, gotEvents, err := hub.Ingest(ctx, batch)
		if err != nil {
			t.Fatalf("%s step %d: router ingest: %v", label, step, err)
		}
		_, wantEvents, err := ref.Ingest(ctx, batch)
		if err != nil {
			t.Fatalf("%s step %d: reference ingest: %v", label, step, err)
		}
		sameEvents(t, label, gotEvents, wantEvents, gotIDs, wantIDs)
		for gid := range gotIDs {
			gres, err := hub.Answer(gid)
			if err != nil {
				t.Fatal(err)
			}
			fres, err := engine.New(1).Do(ctx, refStore, reqs[gotIDs[gid]])
			if err != nil {
				t.Fatal(err)
			}
			if gres.IsBool != fres.IsBool || gres.Bool != fres.Bool || !reflect.DeepEqual(gres.OIDs, fres.OIDs) {
				t.Fatalf("%s step %d: answer for sub %d stale: %+v vs fresh %+v", label, step, gid, gres, fres)
			}
		}
	}
}

func TestRouterHubLocalHash(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		router, err := cluster.NewLocalCluster(liveStore(t), n, cluster.Options{})
		if err != nil {
			t.Fatal(err)
		}
		runLiveEquivalence(t, "local-hash", router)
	}
}

func TestRouterHubRemote(t *testing.T) {
	shards := startShardServers(t, liveStore(t), 2, cluster.Hash{}, cluster.RemoteOptions{})
	router, err := cluster.NewRouter(context.Background(), shards, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	runLiveEquivalence(t, "remote-hash", router)
}

// TestRouterRemoteOutcomesParity: a router over remote shards returns
// the outcomes a router over local shards does — every plan equal by
// value, the ones no reply carries rebuilt from the updates the router
// sent — and its hub reaches the same dirty verdicts (Stats equal) after
// every batch of liveScript, a tag flip, a tagged revision and a
// retirement. A shard reply whose changed_from disagrees with the splice
// of its update is ErrProtocol.
func TestRouterRemoteOutcomesParity(t *testing.T) {
	ctx := context.Background()
	local, err := cluster.NewLocalCluster(liveStore(t), 2, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := cluster.NewRouter(ctx, startShardServers(t, liveStore(t), 2, cluster.Hash{}, cluster.RemoteOptions{}), cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hubs := []*continuous.Hub{cluster.NewRouterHub(local), cluster.NewRouterHub(remote)}
	for _, h := range hubs {
		for _, req := range liveRequests() {
			if _, _, err := h.Subscribe(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
	}
	tags := []string{"ev"}
	tagged := rev(4, [3]float64{8, 60, 8}, [3]float64{10, 2, 10})
	tagged.Tags = &tags
	script := append(liveScript(), []mod.Update{{OID: 2, Tags: &tags}, tagged, {OID: 5, Retire: true}})
	for step, batch := range script {
		var outcomes [2][]mod.Applied
		for i, h := range hubs {
			if outcomes[i], _, err = h.Ingest(ctx, batch); err != nil {
				t.Fatalf("step %d, hub %d: %v", step, i, err)
			}
		}
		if !reflect.DeepEqual(outcomes[1], outcomes[0]) {
			t.Fatalf("step %d: remote outcomes differ from local\n got %+v\nwant %+v", step, outcomes[1], outcomes[0])
		}
		if got, want := hubs[1].Stats(), hubs[0].Stats(); got != want {
			t.Fatalf("step %d: remote hub stats %+v, local %+v", step, got, want)
		}
	}
	if st := hubs[0].Stats(); st.Evals == 0 || st.Skips == 0 {
		t.Fatalf("the script never split the verdicts: %+v", st)
	}

	// A shard that reports another changed_from than its update's splice.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	prev, err := liveStore(t).Get(3)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
			return
		}
		line, _ := json.Marshal(modserver.Response{OK: true, Applied: []modserver.WireApplied{{OID: 3, ChangedFrom: 4, PVB: serve.PackVerts(prev.Verts)}}})
		_, _ = conn.Write(append(line, '\n'))
	}()
	doctored := cluster.NewRemoteShard("doctored", l.Addr().String())
	t.Cleanup(func() { doctored.Close() })
	if _, err := doctored.Ingest(ctx, liveScript()[0]); !errors.Is(err, cluster.ErrProtocol) {
		t.Fatalf("a doctored changed_from: err = %v, want ErrProtocol", err)
	}
}

func TestRouterIngestPlacement(t *testing.T) {
	ctx := context.Background()
	store := liveStore(t)
	router, err := cluster.NewLocalCluster(store, 3, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A revision routes to the shard that owns the object; an insert
	// followed by a revision of the same new OID in one batch must land
	// on one shard.
	applied, err := router.Ingest(ctx, []mod.Update{
		rev(3, [3]float64{7, 49, 7}, [3]float64{10, 49, 10}),
		{OID: 42, Verts: []trajectory.Vertex{{X: 0, Y: 7, T: 0}, {X: 10, Y: 7, T: 10}}},
		rev(42, [3]float64{8, 9, 8}, [3]float64{10, 9, 10}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 3 {
		t.Fatalf("applied = %+v", applied)
	}
	if applied[0].Inserted || applied[0].ChangedFrom != 6 {
		t.Fatalf("revision outcome = %+v", applied[0])
	}
	if !applied[1].Inserted || !math.IsInf(applied[1].ChangedFrom, -1) {
		t.Fatalf("insert outcome = %+v", applied[1])
	}
	// The new plan has vertices only at t=0 and t=10, so a revision at
	// t=8 keeps just the t=0 vertex: motion changes from 0.
	if applied[2].Inserted || applied[2].ChangedFrom != 0 || applied[2].Prev == nil {
		t.Fatalf("post-insert revision outcome = %+v", applied[2])
	}
}

// TestClusterRefusalsFileAsTheStoreDoes: an insert a store refuses fails
// through a cluster with the store's own reason — the sentinel and the
// code the embedded store gives the same update — not as an internal
// error.
func TestClusterRefusalsFileAsTheStoreDoes(t *testing.T) {
	ctx := context.Background()
	tags := []string{"ev"}
	cases := []struct {
		name string
		u    mod.Update
		is   error
	}{
		{"one vertex", mod.Update{OID: 77, Verts: []trajectory.Vertex{{X: 0, Y: 0, T: 1}}}, mod.ErrShortInsert},
		{"non-increasing", rev(77, [3]float64{0, 0, 2}, [3]float64{1, 1, 1}), mod.ErrStaleVertex},
		{"tags only", mod.Update{OID: 77, Tags: &tags}, mod.ErrNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, embedded := liveStore(t).ApplyUpdates([]mod.Update{tc.u})
			router, err := cluster.NewLocalCluster(liveStore(t), 3, cluster.Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = router.Ingest(ctx, []mod.Update{tc.u})
			if !errors.Is(embedded, tc.is) || !errors.Is(err, tc.is) {
				t.Fatalf("embedded %v, cluster %v; want both %v", embedded, err, tc.is)
			}
			if got, want := codeOf(err), codeOf(embedded); got != want {
				t.Fatalf("cluster files %v as %s, the embedded store as %s", err, got, want)
			}
		})
	}
}

// codeOf is the wire code and HTTP status a failure files under.
func codeOf(err error) string {
	name, status := serve.Classify(err)
	return fmt.Sprintf("%s %d", name, status)
}

func TestZoneProfile(t *testing.T) {
	ctx := context.Background()
	store := liveStore(t)
	router, err := cluster.NewLocalCluster(store, 2, cluster.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q, cuts, bounds, ids, err := router.ZoneProfile(ctx, 1, 0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q == nil || q.OID != 1 {
		t.Fatalf("query = %+v", q)
	}
	if len(bounds) != len(cuts)-1 || len(cuts) < 2 {
		t.Fatalf("%d bounds for %d cuts", len(bounds), len(cuts))
	}
	// The global survivors must include the NN (object 2) and exclude the
	// far objects, and the merged bounds must dominate the true envelope
	// (distance 1 to object 2) nowhere below it.
	found := false
	for _, id := range ids {
		if id == 2 {
			found = true
		}
		if id == 4 || id == 5 {
			t.Fatalf("far object %d survived the global sweep", id)
		}
	}
	if !found {
		t.Fatal("object 2 missing from the global survivors")
	}
	for i, u := range bounds {
		if !math.IsInf(u, 1) && u < 1-1e-9 {
			t.Fatalf("bound %d = %g below the true envelope", i, u)
		}
	}

	// Unknown query OID surfaces the typed not-found identity.
	if _, _, _, _, err := router.ZoneProfile(ctx, 99, 0, 10, 1); !errors.Is(err, mod.ErrNotFound) {
		t.Fatalf("unknown query err = %v", err)
	}
}
