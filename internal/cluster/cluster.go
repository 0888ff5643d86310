// Package cluster is the sharded scatter-gather serving layer: a Router
// that answers the unified engine.Request contract against a MOD whose
// trajectories are partitioned across K shards, byte-identically to a
// single-store Engine.Do.
//
// The catch that makes this a real subsystem rather than a fan-out loop is
// the paper's core semantics: possible/certain-NN answers depend on the
// *global* object set — the 4r pruning zone of Section 3.2 hangs off the
// lower envelope, a min over ALL objects' distance functions — so a shard
// evaluating against only its local objects would over-answer (its local
// envelope sits above the global one). The router therefore runs the
// NN-family kinds in two phases:
//
//	phase 1 (bounds)    — every shard reports, per deterministic time
//	                      slice of the query corridor (prune.SliceCuts),
//	                      an upper bound on its local Level-k envelope
//	                      (prune.SliceBoundsWhere). Each finite bound is the
//	                      slice maximum of a real object's distance, so
//	                      the elementwise minimum across shards is a sound
//	                      upper bound on the GLOBAL envelope.
//	phase 2 (survivors) — the router broadcasts the merged global bounds;
//	                      every shard sweeps its objects against them
//	                      (prune.SurvivorsWithBoundsWhere) and returns the
//	                      trajectories that can enter the global 4r zone.
//	refine (central)    — the router gathers the survivors (a conservative
//	                      superset of the zone members, which provably
//	                      contains every object achieving the global
//	                      envelope) into a transient union store, makes one
//	                      whole build over it (no second pre-pass, no memo
//	                      entry) and evaluates every request of the round
//	                      on that processor through engine.Evaluate — the
//	                      whole-MOD filter kinds with the candidate domain
//	                      restricted to the gathered survivors, fanned
//	                      across the engine's workers. Because the union's
//	                      envelope equals the global envelope pointwise on
//	                      the window, and every globally pruned object
//	                      answers false on every filter kind, the answer is
//	                      byte-identical to a single-store run — the same
//	                      conservative-superset guarantee the single-store
//	                      index pre-pass is gated on. No shard is sent the
//	                      union back.
//
// The all-pairs and reverse kinds iterate query trajectories; instead of
// gathering every shard's objects, the router unions the shards' OID sets
// and runs the engine's per-query-object loop (engine.PerQueryObject)
// with one bound exchange and one whole build per OID, bounding gathered
// state by the survivor sets rather than the whole MOD.
//
// Shards come in two kinds: LocalShard wraps an in-process mod.Store;
// RemoteShard speaks the modserver query op (bounds/survivors/oids
// phases) over TCP. Hash places every object by its OID, so a point lookup
// or an update routes to one shard.
package cluster

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/mod"
	"repro/internal/prune"
	"repro/internal/serve"
	"repro/internal/textidx"
	"repro/internal/trajectory"
)

// Package errors.
var (
	// ErrNoShards reports a router constructed over an empty shard list.
	ErrNoShards = errors.New("cluster: router needs at least one shard")
	// ErrSpecMismatch reports shards that disagree on the uncertainty
	// model; the paper's semantics (and the bound exchange) assume one
	// shared radius and pdf.
	ErrSpecMismatch = errors.New("cluster: shards disagree on the uncertainty model")
	// ErrNoRouter is returned by methods on a nil router.
	ErrNoRouter = errors.New("cluster: nil router")
	// ErrProtocol reports a shard reply that violates the bound-exchange
	// contract or contradicts the ingest batch it answers.
	ErrProtocol = serve.ErrProtocol
	// ErrShardUnavailable is the errors.Is sentinel of
	// ShardUnavailableError: a shard could not be reached at all (dial
	// refused, partitioned) as opposed to failing mid-conversation. It is
	// serve's, so both wires answer it as shard_unavailable.
	ErrShardUnavailable = serve.ErrShardUnavailable
)

// ShardUnavailableError reports a shard the router could not reach,
// carrying which shard so callers (and the degraded merge's provenance)
// can name it. It satisfies errors.Is(err, ErrShardUnavailable).
type ShardUnavailableError struct {
	// Shard is the shard's index in the router's shard slice, or -1 when
	// the shard is not (yet) routed.
	Shard int
	// Name is the shard's configured name.
	Name string
	// Err is the underlying dial failure.
	Err error
}

func (e *ShardUnavailableError) Error() string {
	if e.Shard >= 0 {
		return fmt.Sprintf("cluster: shard %d (%s) unavailable: %v", e.Shard, e.Name, e.Err)
	}
	return fmt.Sprintf("cluster: shard %s unavailable: %v", e.Name, e.Err)
}

func (e *ShardUnavailableError) Unwrap() error { return e.Err }

// Is matches the ErrShardUnavailable sentinel.
func (e *ShardUnavailableError) Is(target error) bool { return target == ErrShardUnavailable }

// Shard is one partition of the MOD as the router sees it: point lookups
// plus the two bound-exchange phases. Implementations must be safe for the
// router's sequential per-query use and must honor ctx cancellation
// promptly (the router's scatter waits for every shard before returning).
type Shard interface {
	// Name identifies the shard in errors and Explain provenance.
	Name() string
	// Spec returns the shard's uncertainty model; every shard of a
	// cluster must agree.
	Spec(ctx context.Context) (mod.PDFSpec, error)
	// Get returns the trajectory stored under oid and its tag set (nil
	// when untagged), or an error satisfying errors.Is(err,
	// mod.ErrNotFound) when the shard does not hold it.
	Get(ctx context.Context, oid int64) (*trajectory.Trajectory, []string, error)
	// Bounds is phase 1 of the NN bound exchange: per slice of
	// prune.SliceCuts(q, tb, te), an upper bound on the shard's local
	// Level-k envelope against q (+Inf where the shard cannot bound it).
	// A non-nil where, normalized by the caller, restricts the shard's
	// object universe to the matching sub-MOD (the query itself stays
	// exempt) — the sub-MOD envelope is a different curve, not a filtered
	// view of the full one.
	Bounds(ctx context.Context, q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate) ([]float64, error)
	// Survivors is phase 2: the shard's objects that can enter the 4r
	// zone of the globally merged bounds, as full trajectories, plus the
	// sweep statistics. where must match the Bounds call of the same
	// exchange.
	Survivors(ctx context.Context, q *trajectory.Trajectory, tb, te float64, bounds []float64, where *textidx.Predicate) ([]*trajectory.Trajectory, prune.Stats, error)
	// Refine evaluates a whole-MOD filter request over a gathered union
	// survivor store with the candidate domain restricted to own, a
	// sorted OID list, in the caller's process (gatherID is ignored): the
	// union is already in the caller's memory, so no shard kind ships it
	// anywhere. The Router never calls it (it refines the union on its
	// own engine); it stays only because the benchmark module's traced
	// shard forwards it, and ROADMAP item 13 removes it with that shard.
	Refine(ctx context.Context, gatherID string, union *mod.Store, own []int64, req engine.Request) (engine.Result, error)
	// OIDs returns the sorted OIDs of every trajectory the shard holds
	// whose tags satisfy where (nil means all) — the iteration domain the
	// all-pairs and reverse kinds union across shards before running one
	// bound exchange per query object.
	OIDs(ctx context.Context, where *textidx.Predicate) ([]int64, error)
	// Ingest applies live updates (plan revisions, extensions, inserts —
	// the mod.ApplyUpdates contract) to the shard's partition, returning
	// per-update outcomes in order.
	Ingest(ctx context.Context, updates []mod.Update) ([]mod.Applied, error)
	// Owns reports, elementwise, whether the shard currently holds each
	// OID. The Router never calls it (Hash locates every OID); it stays
	// only because the benchmark module's traced shard forwards it.
	Owns(ctx context.Context, oids []int64) ([]bool, error)
}

// LocalShard is an in-process shard over a mod.Store — the building block
// of single-machine scaling (uncertnn -shards, the shard benchmark) and
// the reference implementation RemoteShard mirrors over the wire: each
// exchange phase is one prune call on the store, as a shard-serving
// modserver runs it.
type LocalShard struct {
	name  string
	store *mod.Store
}

// NewLocalShard wraps store as a shard named name.
func NewLocalShard(name string, store *mod.Store) *LocalShard {
	return &LocalShard{name: name, store: store}
}

// Name implements Shard.
func (s *LocalShard) Name() string { return s.name }

// Spec implements Shard.
func (s *LocalShard) Spec(context.Context) (mod.PDFSpec, error) { return s.store.Spec(), nil }

// Get implements Shard.
func (s *LocalShard) Get(_ context.Context, oid int64) (*trajectory.Trajectory, []string, error) {
	tr, err := s.store.Get(oid)
	if err != nil {
		return nil, nil, err
	}
	return tr, s.store.Tags(oid), nil
}

// Bounds implements Shard via the store's index pre-pass probe phase.
func (s *LocalShard) Bounds(ctx context.Context, q *trajectory.Trajectory, tb, te float64, k int, where *textidx.Predicate) ([]float64, error) {
	return prune.SliceBoundsWhere(ctx, s.store, q, tb, te, k, where)
}

// Survivors implements Shard via the store's bound-driven sweep.
func (s *LocalShard) Survivors(ctx context.Context, q *trajectory.Trajectory, tb, te float64, bounds []float64, where *textidx.Predicate) ([]*trajectory.Trajectory, prune.Stats, error) {
	return prune.SurvivorsWithBoundsWhere(ctx, s.store, q, tb, te, bounds, where)
}

// Refine implements Shard with refineUnion.
func (s *LocalShard) Refine(ctx context.Context, _ string, union *mod.Store, own []int64, req engine.Request) (engine.Result, error) {
	return refineUnion(ctx, union, own, req)
}

// refineUnion is both shard kinds' Refine: the union store is read in
// place and evaluated with the domain restricted to own. DoRestricted
// keeps no memo, so the engine is a worker pool for this one call.
func refineUnion(ctx context.Context, union *mod.Store, own []int64, req engine.Request) (engine.Result, error) {
	return engine.New(0).DoRestricted(ctx, union, req, own)
}

// OIDs implements Shard.
func (s *LocalShard) OIDs(_ context.Context, where *textidx.Predicate) ([]int64, error) {
	return s.store.MatchingOIDs(where), nil
}

// Ingest implements Shard.
func (s *LocalShard) Ingest(_ context.Context, updates []mod.Update) ([]mod.Applied, error) {
	return s.store.ApplyUpdates(updates)
}

// Owns implements Shard.
func (s *LocalShard) Owns(_ context.Context, oids []int64) ([]bool, error) {
	out := make([]bool, len(oids))
	for i, oid := range oids {
		_, err := s.store.Get(oid)
		out[i] = err == nil
	}
	return out, nil
}

// SplitStore partitions a store's contents into n new stores sharing its
// uncertainty model, placing each trajectory on the shard Hash locates.
// The Hash argument carries no choice; it keeps the benchmark module's
// call compiling. Trajectory values are shared, not copied — stores treat
// them as immutable.
func SplitStore(store *mod.Store, n int, _ Hash) ([]*mod.Store, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: cannot split into %d stores", n)
	}
	out := make([]*mod.Store, n)
	for i := range out {
		s, err := mod.NewStore(store.Spec())
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	v := store.TaggedView()
	for j, tr := range v.Trajs {
		i := Hash{}.Locate(tr.OID, n)
		if err := out[i].Insert(tr); err != nil {
			return nil, err
		}
		if ts := v.Tags[j]; len(ts) > 0 {
			if err := out[i].SetTags(tr.OID, ts); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// NewLocalCluster splits a store into n in-process shards by Hash and
// routes over them — the zero-config path behind uncertnn -shards, the
// fleetwatch demo, and the shard-scaling benchmark.
func NewLocalCluster(store *mod.Store, n int, opts Options) (*Router, error) {
	stores, err := SplitStore(store, n, Hash{})
	if err != nil {
		return nil, err
	}
	shards := make([]Shard, n)
	for i, s := range stores {
		shards[i] = NewLocalShard(fmt.Sprintf("local-%d", i), s)
	}
	return NewRouter(context.Background(), shards, opts)
}
