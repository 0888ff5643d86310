package queries

import (
	"context"

	"repro/internal/envelope"
	"repro/internal/pool"
	"repro/internal/trajectory"
)

// Seed is what is expensive to recompute about a pruned processor at one
// rank, and small: the scan set (as the trajectories its functions were
// built from — trajectories are immutable, so a pointer pins the
// geometry), the envelope levels 1..Rank cut down to their defining
// functions, and the zone rows computed so far. It holds nothing of the
// size of the candidate population. A standing question keeps the seed of
// its last evaluation; when an update batch provably leaves the levels as
// they are (internal/prune decides that), NewSuccessor assembles the next
// processor from the seed in place of a fresh pre-pass, envelope
// construction and interval scan. A Seed is immutable once built.
type Seed struct {
	Query     *trajectory.Trajectory
	Tb, Te, R float64
	Rank      int
	// Entries is the rank's scan set in OID order: the Level-1 survivors,
	// and for Rank > 1 the rest of the rank basis among them.
	Entries []SeedEntry
	// Levels are the envelopes 1..Rank over the scan set.
	Levels []*envelope.Envelope
	// Pool is the worker pool of the processor the seed was taken from:
	// a successor builds, and runs its lazy steps, on it.
	Pool *pool.Pool
}

// SeedEntry is one member of a seed's scan set.
type SeedEntry struct {
	Traj *trajectory.Trajectory
	// Level1 marks a member of the Level-1 scan set (every entry of a
	// rank-1 seed).
	Level1 bool
	// Row is the object's zone row against Levels[Rank-1]; nil when it has
	// not been computed (an empty row is non-nil).
	Row []envelope.TimeInterval
}

// Seed returns the processor's seed at rank k, or nil when there is none
// to take: a basis that does not answer rank k yet or is complete — a full
// scan, or a basis grown to every candidate, has no pre-pass to continue
// from — fewer than k levels.
func (p *Processor) Seed(k int) *Seed {
	if k < 1 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.basisRank == fullRank || p.basisRank < k || len(p.levels) < k {
		return nil
	}
	scan, rows := p.table, p.zone1
	if k > 1 {
		scan, rows = p.basisTable, nil
		if len(p.zones) >= k {
			rows = p.zones[k-1]
		}
	}
	s := &Seed{
		Query: p.q, Tb: p.Tb, Te: p.Te, R: p.R, Rank: k,
		Entries: make([]SeedEntry, len(scan)),
		Levels:  make([]*envelope.Envelope, k),
		Pool:    p.pool,
	}
	for i, f := range scan {
		tr := p.snapshot.Find(f.ID, p.QueryOID)
		if tr == nil {
			return nil
		}
		s.Entries[i] = SeedEntry{Traj: tr, Level1: k == 1 || p.table.get(f.ID) != nil}
		if rows != nil {
			s.Entries[i].Row = rows[i].peek()
		}
	}
	s.Levels[0] = p.env1.Compact()
	for j := 1; j < k; j++ {
		s.Levels[j] = p.levels[j].Compact()
	}
	return s
}

// NewSuccessor assembles the processor a seed describes over a newer
// snapshot u of the same (sub-)MOD: q is the query trajectory there, and
// fresh (in ID order) holds the distance functions of the entries the
// caller added or replaced, already built against q. The caller vouches
// for the seed: its entries are a conservative superset of the rank's zone
// over u, and its levels are the envelopes of that set — then the
// successor answers every query variant exactly as a processor built from
// scratch over u would. Functions of the other entries are rebuilt from
// their trajectories (cheap next to what the seed saves); rows the seed
// carries are installed, the rest are computed on demand as always.
func NewSuccessor(s *Seed, q *trajectory.Trajectory, fresh []*envelope.DistanceFunc, u Universe) (*Processor, error) {
	trs := make([]*trajectory.Trajectory, len(s.Entries))
	basis := make([]*envelope.DistanceFunc, len(s.Entries))
	for i, e := range s.Entries {
		id := e.Traj.OID
		for len(fresh) > 0 && fresh[0].ID < id {
			fresh = fresh[1:]
		}
		if len(fresh) > 0 && fresh[0].ID == id {
			basis[i] = fresh[0]
		}
		for j := 0; basis[i] == nil && j < len(s.Levels); j++ {
			basis[i] = s.Levels[j].Func(id) // a defining function is already at hand
		}
		trs[i] = e.Traj
	}
	if err := buildFuncs(context.Background(), s.Pool, trs, basis, q, s.Tb, s.Te); err != nil {
		return nil, err
	}
	rows := make([]zoneRow, len(s.Entries))
	level1 := 0
	for i, e := range s.Entries {
		if e.Row != nil {
			rows[i].set(e.Row)
		}
		if e.Level1 {
			level1++
		}
	}
	p := &Processor{
		QueryOID: q.OID, Tb: s.Tb, Te: s.Te, R: s.R,
		table: basis, env1: s.Levels[0], zone1: rows,
		snapshot: u, q: q, nCands: -1,
		levels:     append([]*envelope.Envelope(nil), s.Levels...),
		basisTable: basis, basisRank: s.Rank,
		pool: s.Pool,
	}
	if s.Rank > 1 {
		// The carried rows belong to the rank basis; the Level-1 scan set
		// is the marked part of it, with a table of its own.
		table := make([]*envelope.DistanceFunc, 0, level1)
		for i, e := range s.Entries {
			if e.Level1 {
				table = append(table, basis[i])
			}
		}
		p.table, p.zone1 = table, make([]zoneRow, len(table))
		p.zones = make([][]zoneRow, s.Rank)
		p.zones[s.Rank-1] = rows
	}
	return p, nil
}
