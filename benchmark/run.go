package main

// The measured phase: a single client replays the prepared script round
// by round — each round its update batches, then its one-shot queries —
// waiting for every reply before sending the next request. Only the calls
// into the system are timed; answer canonicalisation and the oracle
// comparison happen between operations.

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/continuous"
	"repro/internal/mod"
)

// phaseStats is what one pass over a list of rounds observed.
type phaseStats struct {
	qLat, bLat     []time.Duration // walls of the operations that succeeded
	updates        int
	events         int
	attempted      int
	failed         int
	failures       []string
	oracleChecked  int
	wireWrites     int64 // router->shard request lines during queries
	wireBytes      int64 // bytes both ways on those sockets during queries
	wall           time.Duration
	cpu            time.Duration
	allocBytes     uint64
	heapLive       []float64 // live heap after each round, as the last GC cycle marked it
	stolen         float64   // share of the host's CPU time stolen by the hypervisor during the pass
	index          mod.IndexStats
	hub            continuous.Stats
	walAppendBytes uint64
}

func (ps *phaseStats) fail(format string, args ...any) {
	ps.failed++
	if len(ps.failures) < 5 {
		ps.failures = append(ps.failures, fmt.Sprintf(format, args...))
	}
}

// playRound replays one round. An operation fails on an error, a non-2xx
// reply, or an answer that differs from the oracle's.
func (in *instance) playRound(rd *round, ps *phaseStats) {
	if rd.Resub != nil {
		if err := in.resubscribe(rd.Resub); err != nil {
			ps.fail("%v", err)
		}
	}
	for i := range rd.Batches {
		b := &rd.Batches[i]
		d, events, err := in.ingest(b)
		ps.attempted++
		if err != nil {
			ps.fail("ingest: %v", err)
			continue
		}
		ps.bLat = append(ps.bLat, d)
		ps.updates += len(b.Updates)
		ps.events += events
	}
	for i := range rd.Queries {
		q := &rd.Queries[i]
		var w0, b0 int64
		if in.wire != nil {
			w0, b0 = in.wire.writes.Load(), in.wire.bytes.Load()
		}
		d, rep, err := in.query(q)
		ps.attempted++
		if in.wire != nil {
			ps.wireWrites += in.wire.writes.Load() - w0
			ps.wireBytes += in.wire.bytes.Load() - b0
		}
		if err != nil {
			ps.fail("query %s: %v", q.Req.Kind, err)
			continue
		}
		if q.Expect != "" {
			ps.oracleChecked++
			if got, err := rep.key(); err != nil {
				ps.fail("query %s: %v", q.Req.Kind, err)
				continue
			} else if got != q.Expect {
				ps.fail("query %s q=%d [%g,%g]: served %s, oracle %s", q.Req.Kind, q.Req.QueryOID, q.Req.Tb, q.Req.Te, got, q.Expect)
				continue
			}
		}
		ps.qLat = append(ps.qLat, d)
	}
	for _, c := range rd.Standing {
		ps.oracleChecked++
		got, err := in.standing(c.Sub)
		if err != nil {
			ps.fail("standing answer %d: %v", c.Sub, err)
		} else if got != c.Expect {
			ps.fail("standing answer %d: hub holds %s, oracle %s", c.Sub, got, c.Expect)
		}
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostCPU reads the host-wide CPU jiffies from /proc/stat: the total and
// the part the hypervisor gave to someone else. A run on a machine with
// noisy neighbours shows it here; ok is false off Linux.
func hostCPU() (total, stolen float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; the rest double-count guests
			total += v
		}
		if i == 7 {
			stolen = v
		}
	}
	return total, stolen, true
}

func (in *instance) indexStats() mod.IndexStats {
	var sum mod.IndexStats
	for _, st := range in.stores() {
		s := st.IndexStats()
		sum.SegBuilds += s.SegBuilds
		sum.SegIncremental += s.SegIncremental
	}
	return sum
}

func (in *instance) walBytes() uint64 {
	var sum uint64
	for _, log := range in.logs {
		sum += log.Stats().AppendedBytes
	}
	return sum
}

func (in *instance) hubStats() continuous.Stats {
	if in.hub == nil {
		return continuous.Stats{}
	}
	return in.hub.Stats()
}

// measure replays the measured rounds, with the tracer (if any) recording.
func measure(in *instance, sc *script) *phaseStats {
	ps := &phaseStats{}
	runtime.GC()
	if in.tr != nil {
		in.tr.on.Store(true)
		defer in.tr.on.Store(false)
	}
	var m0, m1 runtime.MemStats
	idx0, hub0, wal0 := in.indexStats(), in.hubStats(), in.walBytes()
	runtime.ReadMemStats(&m0)
	host0, stolen0, _ := hostCPU()
	cpu0 := cpuTime()
	t0 := time.Now()
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	for i := range sc.Measured {
		in.playRound(&sc.Measured[i], ps)
		metrics.Read(live)
		ps.heapLive = append(ps.heapLive, float64(live[0].Value.Uint64()))
	}
	ps.wall = time.Since(t0)
	ps.cpu = cpuTime() - cpu0
	if host1, stolen1, ok := hostCPU(); ok {
		ps.stolen = ratio(stolen1-stolen0, host1-host0)
	}
	runtime.ReadMemStats(&m1)
	ps.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	idx1, hub1 := in.indexStats(), in.hubStats()
	ps.index = mod.IndexStats{SegBuilds: idx1.SegBuilds - idx0.SegBuilds, SegIncremental: idx1.SegIncremental - idx0.SegIncremental}
	ps.hub = continuous.Stats{
		Ingested: hub1.Ingested - hub0.Ingested, Evals: hub1.Evals - hub0.Evals,
		Skips: hub1.Skips - hub0.Skips, Shared: hub1.Shared - hub0.Shared,
	}
	ps.walAppendBytes = in.walBytes() - wal0
	if in.replay != nil {
		for _, m := range in.replay.mismatches {
			ps.fail("%s", m)
		}
	}
	return ps
}

// ---- statistics --------------------------------------------------------

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// quantile is the nearest-rank quantile of ds (which it sorts).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	slices.Sort(ds)
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	return ds[min(max(i, 0), len(ds)-1)]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perSecond is n operations over the summed wall of ds.
func perSecond(n int, ds []time.Duration) float64 {
	return ratio(float64(n), sum(ds).Seconds())
}

// endToEndMetrics turns an untraced pass into the nine published numbers.
// The live heap is the median over rounds of what the last GC cycle
// marked: one forced collection at the end would report whatever the
// engine memo happened to hold at that instant (CALIBRATION.md).
func endToEndMetrics(ps *phaseStats, setups []float64) map[string]float64 {
	ops := float64(len(ps.qLat) + len(ps.bLat))
	return map[string]float64{
		"setup_s":              median(setups),
		"query_p50_ms":         ms(quantile(ps.qLat, 0.50)),
		"query_p95_ms":         ms(quantile(ps.qLat, 0.95)),
		"query_per_s":          perSecond(len(ps.qLat), ps.qLat),
		"ingest_batch_p50_ms":  ms(quantile(ps.bLat, 0.50)),
		"ingest_updates_per_s": perSecond(ps.updates, ps.bLat),
		"cpu_ms_per_op":        ratio(ms(ps.cpu), ops),
		"alloc_kb_per_op":      ratio(float64(ps.allocBytes)/1e3, ops),
		"heap_live_mb":         median(ps.heapLive) / 1e6,
	}
}

// layerMetrics turns a traced pass into the per-layer report. Stage times
// are per query (or batch), so on one workload they add up; counts come
// from the program's own counters over the pass. untraced is the pass a
// tracer-less instance made over the same rounds just before.
func layerMetrics(in *instance, ps, untraced *phaseStats) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = 0
	}
	tree := buildTree(in.tr.snapshot())
	is := func(name string) func(string) bool { return func(n string) bool { return n == name } }
	under := func(prefix string) func(string) bool {
		return func(n string) bool { return strings.HasPrefix(n, prefix) }
	}

	queries, batches := float64(len(ps.qLat)), float64(len(ps.bLat))
	total := map[string]time.Duration{}
	count := map[string]float64{}
	var (
		indexCover, routerSelf, boundsCover, survCover, refineCover time.Duration
		gwQuerySelf, gwIngestSelf, clusterIngest, hubSelf           time.Duration
		skew                                                        float64
	)
	for i, s := range tree.spans {
		total[s.Name] += s.dur()
		count[s.Name]++
		switch s.Name {
		case "client.query", "gateway.query":
			indexCover += tree.childCover(i, is("sindex.build_index"))
			if s.Name == "gateway.query" {
				gwQuerySelf += tree.self(i)
			}
		case "gateway.ingest":
			gwIngestSelf += tree.self(i)
			clusterIngest += tree.childCover(i, under("cluster."))
		case "continuous.ingest":
			hubSelf += tree.self(i)
		case "cluster.router_do":
			routerSelf += tree.self(i)
			boundsCover += tree.childCover(i, is("cluster.shard_bounds"))
			survCover += tree.childCover(i, is("cluster.shard_survivors"))
			refineCover += tree.childCover(i, is("cluster.shard_refine"))
			perShard := map[int]time.Duration{}
			for _, c := range tree.children[i] {
				if cs := tree.spans[c]; cs.Shard >= 0 {
					perShard[cs.Shard] += cs.dur()
				}
			}
			var slowest, all time.Duration
			for _, d := range perShard {
				slowest = max(slowest, d)
				all += d
			}
			if all > 0 {
				skew += float64(slowest) * float64(len(perShard)) / float64(all)
			}
		}
	}
	per := func(d time.Duration, n float64) float64 { return ratio(ms(d), n) }

	out["sindex.index_ms_per_query"] = per(indexCover, queries)
	out["mod.seg_rebuilds"] = float64(ps.index.SegBuilds)
	out["mod.seg_incremental"] = float64(ps.index.SegIncremental)

	if r := in.replay; r != nil && r.queries > 0 {
		n := float64(r.queries)
		out["prune.snapshot_ms"] = per(total["prune.snapshot"], n)
		out["prune.bounds_ms"] = per(total["prune.bounds"], n)
		out["prune.survivors_ms"] = per(total["prune.survivors"]+total["prune.rank_survivors"], n)
		out["prune.survivor_ratio"] = ratio(float64(r.survivors), float64(r.candidates))
		out["prune.probes_per_query"] = float64(r.probes) / n
		out["prune.alloc_kb_per_query"] = float64(r.allocPrune) / 1e3 / n
		out["envelope.distfuncs_ms"] = per(total["envelope.distfuncs"], n)
		out["envelope.lower_ms"] = per(total["envelope.lower"], n)
		out["envelope.intervals_per_query"] = float64(r.intervals) / n
		out["envelope.alloc_kb_per_query"] = float64(r.allocEnv) / 1e3 / n
		build := total["queries.processor"] - total["envelope.distfuncs"] - total["envelope.lower"] +
			total["queries.levels"] - total["prune.rank_survivors"]
		out["queries.build_ms"] = per(max(build, 0), n)
		out["queries.refine_ms"] = per(total["queries.refine"], n)
		out["queries.refine_alloc_kb_per_query"] = float64(r.allocRefine) / 1e3 / n
		out["textidx.match_ms"] = per(total["textidx.match"]+total["textidx.text_index"], float64(r.filtered))
		out["engine.do_ms"] = per(r.doWall, n)
		out["engine.do_ms_filtered"] = per(r.doFiltered, float64(r.filtered))
		out["engine.do_ms_rank2"] = per(r.doRank2, float64(r.rank2))
		out["engine.memo_hit_ratio"] = float64(r.memoHits) / n
		out["engine.unattributed_ratio"] = 1 - ratio(float64(r.stageWall), float64(r.doWall))
	}

	out["wal.append_ms_per_batch"] = per(total["wal.append"], batches)
	out["wal.bytes_per_update"] = ratio(float64(ps.walAppendBytes), float64(ps.updates))
	out["mod.apply_ms_per_batch"] = per(total["mod.apply"], batches)

	if n := count["continuous.ingest"]; n > 0 {
		out["continuous.ingest_ms_per_batch"] = per(total["continuous.ingest"], n)
		out["continuous.dirty_self_ms_per_batch"] = per(hubSelf, n)
		out["continuous.evaluate_ms_per_eval"] = per(total["continuous.evaluate"], count["continuous.evaluate"])
		out["continuous.profile_ms_per_eval"] = per(total["continuous.profile"], count["continuous.profile"])
	}
	refreshes := float64(ps.hub.Evals + ps.hub.Skips + ps.hub.Shared)
	out["continuous.evals_per_batch"] = ratio(float64(ps.hub.Evals), batches)
	out["continuous.skip_ratio"] = ratio(float64(ps.hub.Skips), refreshes)
	out["continuous.shared_ratio"] = ratio(float64(ps.hub.Shared), refreshes)
	out["continuous.events_per_batch"] = ratio(float64(ps.events), batches)

	if in.spec.Wire {
		routerDos := count["cluster.router_do"]
		out["gateway.query_overhead_ms"] = per(gwQuerySelf, queries)
		out["gateway.ingest_overhead_ms"] = per(gwIngestSelf, batches)
		out["gateway.resp_bytes_per_query"] = ratio(float64(in.wire.respBytes), queries)
		out["cluster.router_do_ms"] = per(total["cluster.router_do"], routerDos)
		out["cluster.bounds_ms"] = per(boundsCover, routerDos)
		out["cluster.survivors_ms"] = per(survCover, routerDos)
		out["cluster.refine_ms"] = per(refineCover, routerDos)
		out["cluster.merge_self_ms"] = per(routerSelf, routerDos)
		out["cluster.shard_skew_ratio"] = ratio(skew, routerDos)
		out["cluster.round_trips_per_query"] = ratio(float64(ps.wireWrites), queries)
		out["cluster.wire_bytes_per_query"] = ratio(float64(ps.wireBytes), queries)
		out["cluster.ingest_ms_per_batch"] = per(clusterIngest, batches)
	}

	// The same rounds through a traced and an untraced instance: what the
	// decorators, the index spans and the replay's cache and GC disturbance
	// cost the caller. The replay itself runs outside the timed call.
	out["trace.overhead_ratio"] = ratio(perSecond(len(ps.qLat), ps.qLat), perSecond(len(untraced.qLat), untraced.qLat))
	return out
}
