// Friendfinder: the LBS scenario of the paper's Section 1 — a mobile user
// asks which friends have any chance of being their nearest neighbor
// during lunch hour, given that everyone's position is known only up to an
// uncertainty disk. Exercises the UQL surface (Categories 1-4 and the
// fixed-time variant) over a TCP MOD server, end to end: each statement
// compiles to a Request on the phone and travels on the query op.
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"repro"
)

func main() {
	// Server side: an LBS provider hosting the MOD.
	store, err := repro.NewUniformStore(0.3) // phone-GPS-grade uncertainty
	if err != nil {
		log.Fatal(err)
	}
	trs, err := repro.GenerateWorkload(repro.DefaultWorkload(7), 200)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.InsertAll(trs); err != nil {
		log.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := repro.NewModServer(store, nil, repro.ModServerOptions{})
	go srv.Serve(l)
	defer srv.Close()

	// Client side: the user's phone.
	c, err := repro.DialModServer(l.Addr().String(), repro.ModDialOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	count, err := c.Count()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("connected to LBS MOD with %d users\n\n", count)

	ask := func(desc, stmt string) {
		req, err := repro.CompileUQL(stmt)
		if err != nil {
			log.Fatal(err)
		}
		results, err := c.Query([]repro.Request{req}, 0)
		if err != nil {
			log.Fatal(err)
		}
		res := results[0]
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		answer := fmt.Sprint(res.OIDs)
		if res.IsBool {
			answer = fmt.Sprint(res.Bool)
		}
		fmt.Printf("%s\n  %s\n  → %s\n\n", desc, stmt, answer)
	}

	ask("Who could be my (user 1's) nearest friend at some point this hour? (UQ31)",
		"SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")

	ask("Who could be nearest at least 40% of the hour? (UQ33)",
		"SELECT T FROM MOD WHERE ATLEAST 40% Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")

	ask("Could user 5 ever be among my two most probable nearest friends? (UQ21)",
		"SELECT 5 FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityKNN(5, 1, Time, 2) > 0")

	ask("Who can be nearest exactly at lunch (t = 30)? (fixed-time variant)",
		"SELECT T FROM MOD WHERE AT Time = 30 WITHIN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")

	ask("Is anyone guaranteed a shot at being nearest the whole hour? (UQ32)",
		"SELECT T FROM MOD WHERE FORALL Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0")

	// Requests can also be written directly — one wire contract for every
	// variant, with per-query Explain provenance and a server-side
	// deadline.
	results, err := c.Query([]repro.Request{
		{Kind: repro.KindUQ31, QueryOID: 1, Tb: 0, Te: 60},
		{Kind: repro.KindUQ41, QueryOID: 1, Tb: 0, Te: 60, K: 2},
	}, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range results {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
		fmt.Printf("unified %s → %v (%d/%d candidates survived pruning, %v)\n",
			res.Kind, res.OIDs, res.Explain.Survivors, res.Explain.Candidates, res.Explain.Wall)
	}
}
