// Command uncertnn runs continuous probabilistic NN queries against a MOD
// store file — as a one-shot UQL statement, a multi-statement batch
// script, or an interactive REPL — and can print a query's IPAC-NN tree:
//
//	uncertnn -store fleet.mod -uql 'SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0'
//	uncertnn -store fleet.mod -script queries.uql   # one statement per line, # comments
//	uncertnn -store fleet.mod -tree -q 1 -tb 0 -te 60 -levels 3
//	uncertnn -store fleet.mod              # REPL: one UQL statement per line
//
// Scripts and the REPL evaluate through the concurrent batch engine:
// every statement compiles to one engine Request (its probability bound,
// `> p` or CertainNN, rides in Request.P), statements sharing a
// query trajectory and window share one envelope preprocessing, whole-MOD
// statements fan per-object work across -workers goroutines (default: one
// per CPU), and the store's spatial index prunes the candidate set before
// preprocessing unless -fullscan disables it. -timeout bounds each
// statement batch with a context deadline honored end to end (worker
// pool, index pre-pass, lazy envelope builds); -tree reads the IPAC-NN
// tree off the same engine's processor, under the same deadline.
//
// -shards N (N > 1) splits the store into N hash-partitioned in-process
// shards and routes every statement through the cluster scatter-gather
// router instead — answers are byte-identical to the single engine (the
// two-phase NN bound exchange keeps global semantics).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/uql"
)

// evalCtx returns the context bounding one statement batch.
func evalCtx(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

func main() {
	var (
		storePath = flag.String("store", "", "path to a store file written by gentraj")
		format    = flag.String("format", "binary", "store format: binary | json")
		uqlStmt   = flag.String("uql", "", "one-shot UQL statement (omit for a REPL)")
		script    = flag.String("script", "", "batch-run a UQL script file (one statement per line)")
		workers   = flag.Int("workers", 0, "batch engine worker count (0 = one per CPU)")
		shards    = flag.Int("shards", 0, "route through an in-process cluster of this many hash-partitioned shards (0 or 1 = single engine)")
		timeout   = flag.Duration("timeout", 0, "per-batch evaluation deadline, e.g. 500ms (0 = none)")
		fullScan  = flag.Bool("fullscan", false, "disable the spatial-index candidate pre-pass (full O(N) envelope preprocessing per query)")
		tree      = flag.Bool("tree", false, "print the IPAC-NN tree for -q over [-tb, -te]")
		qOID      = flag.Int64("q", 1, "query trajectory OID for -tree")
		tb        = flag.Float64("tb", 0, "window start for -tree")
		te        = flag.Float64("te", 60, "window end for -tree")
		levels    = flag.Int("levels", 3, "max tree levels for -tree (0 = unbounded)")
		desc      = flag.Bool("descriptors", false, "compute probability descriptors for -tree")
		asJSON    = flag.Bool("json", false, "emit the -tree answer as JSON instead of text")
	)
	flag.Parse()
	if *storePath == "" {
		fatal(fmt.Errorf("missing -store"))
	}
	f, err := os.Open(*storePath)
	if err != nil {
		fatal(err)
	}
	var store *mod.Store
	switch *format {
	case "binary":
		store, err = mod.LoadBinary(f)
	case "json":
		store, err = mod.LoadJSON(f)
	default:
		err = fmt.Errorf("unknown format %q", *format)
	}
	f.Close()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("loaded %d trajectories (r=%g, pdf=%s)\n", store.Len(), store.Radius(), store.Spec().Kind)

	eng := engine.NewWith(engine.Options{Workers: *workers, FullScan: *fullScan})
	if *tree {
		ctx, cancel := evalCtx(*timeout)
		printTree(ctx, eng, store, *qOID, *tb, *te, *levels, *desc, *asJSON)
		cancel()
		return
	}
	ev := &evaluator{store: store, eng: eng}
	if *shards > 1 {
		router, err := cluster.NewLocalCluster(store, *shards, cluster.Options{Engine: eng})
		if err != nil {
			fatal(err)
		}
		ev.router = router
		fmt.Printf("routing through %d hash-partitioned shards\n", *shards)
	}
	if *script != "" {
		runScript(ev, *script, *timeout)
		return
	}
	if *uqlStmt != "" {
		ctx, cancel := evalCtx(*timeout)
		out := ev.run(ctx, []string{*uqlStmt})[0]
		cancel()
		if out.err != nil {
			fatal(out.err)
		}
		fmt.Println(out)
		return
	}
	repl(ev, *timeout)
}

// evaluator answers statement batches on the engine, or through the
// cluster router when -shards is set: parse, compile, one DoBatch.
type evaluator struct {
	store  *mod.Store
	eng    *engine.Engine
	router *cluster.Router
}

// outcome is one statement's answer, or the error that stopped it.
type outcome struct {
	res engine.Result
	err error
}

func (o outcome) String() string {
	if o.res.IsBool {
		return fmt.Sprint(o.res.Bool)
	}
	return fmt.Sprint(o.res.OIDs)
}

func (e *evaluator) run(ctx context.Context, stmts []string) []outcome {
	out := make([]outcome, len(stmts))
	var (
		reqs []engine.Request
		idxs []int
	)
	for i, stmt := range stmts {
		st, err := uql.Parse(stmt)
		if err != nil {
			out[i].err = err
			continue
		}
		reqs = append(reqs, uql.Compile(st))
		idxs = append(idxs, i)
	}
	var (
		results []engine.Result
		err     error
	)
	if e.router != nil {
		results, err = e.router.DoBatch(ctx, reqs)
	} else {
		results, err = e.eng.DoBatch(ctx, e.store, reqs)
	}
	for j, res := range results {
		out[idxs[j]] = outcome{res: res, err: res.Err}
	}
	// A canceled batch truncates results; surface the context error on
	// the statements left unevaluated.
	for j := len(results); j < len(reqs); j++ {
		out[idxs[j]].err = err
	}
	return out
}

// runScript batch-evaluates a UQL script: one statement per line, blank
// lines and #-comments skipped. Statement failures are reported inline;
// any failure makes the exit status nonzero.
func runScript(ev *evaluator, path string, timeout time.Duration) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var stmts []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		stmts = append(stmts, line)
	}
	ctx, cancel := evalCtx(timeout)
	defer cancel()
	failed := false
	for i, out := range ev.run(ctx, stmts) {
		if out.err != nil {
			failed = true
			fmt.Printf("[%d] error: %v\n", i+1, out.err)
			continue
		}
		fmt.Printf("[%d] %s\n", i+1, out)
	}
	if failed {
		os.Exit(1)
	}
}

func printTree(ctx context.Context, eng *engine.Engine, store *mod.Store, qOID int64, tb, te float64, levels int, desc, asJSON bool) {
	proc, err := eng.ProcessorWhereCtx(ctx, store, qOID, tb, te, nil)
	if err != nil {
		fatal(err)
	}
	tree, err := core.FromProcessor(ctx, proc, store.PDF(), core.Config{MaxLevels: levels, Descriptors: desc})
	if err != nil {
		fatal(err)
	}
	if asJSON {
		if err := tree.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("IPAC-NN tree for TrQ=%d over [%g, %g]: %d nodes, depth %d, %d pruned of %d objects\n",
		qOID, tb, te, tree.NodeCount(), tree.Depth(), len(tree.PrunedOIDs), store.Len()-1)
	tree.Walk(func(n *core.Node) {
		indent := strings.Repeat("  ", n.Level-1)
		line := fmt.Sprintf("%sTr%-6d [%7.3f, %7.3f] level %d", indent, n.ID, n.T0, n.T1, n.Level)
		if n.Descriptor != nil {
			line += fmt.Sprintf("  P∈[%.3f, %.3f]", n.Descriptor.MinProb, n.Descriptor.MaxProb)
		}
		fmt.Println(line)
	})
}

func repl(ev *evaluator, timeout time.Duration) {
	fmt.Println("uncertnn REPL — one UQL statement per line (quit/exit to leave)")
	fmt.Println(`example: SELECT T FROM MOD WHERE EXISTS Time IN [0, 60] AND ProbabilityNN(T, 1, Time) > 0`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("uql> ")
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		// Evaluating through the engine lets repeated statements against
		// the same query trajectory and window reuse the preprocessing;
		// -timeout bounds each statement so a heavy whole-MOD retrieval
		// cannot wedge the REPL.
		ctx, cancel := evalCtx(timeout)
		out := ev.run(ctx, []string{line})[0]
		cancel()
		if out.err != nil {
			fmt.Println("error:", out.err)
			continue
		}
		fmt.Println(out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "uncertnn:", err)
	os.Exit(1)
}
