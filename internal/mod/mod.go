// Package mod implements the Moving Objects Database substrate (the MOD of
// the paper's Section 1): a concurrent in-memory store of uncertain
// trajectories sharing one uncertainty radius and one location pdf (the
// paper assumes r and pdf are common to the set), with
//
//   - loading (Insert, InsertAll, SetTags) and one live mutation path,
//     update batches (ApplyUpdates, live.go),
//   - a shortest-travel-time trip constructor (the server-side trajectory
//     building of Section 2.1: users submit waypoints, the server returns a
//     full trajectory),
//   - spatio-temporal index construction over trajectory segments, and
//   - binary and JSON persistence with failure-injection-friendly error
//     reporting.
package mod

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
	"repro/internal/sindex"
	"repro/internal/trajectory"
	"repro/internal/updf"
)

// Store errors.
var (
	ErrDuplicateOID = errors.New("mod: duplicate object ID")
	ErrNotFound     = errors.New("mod: object not found")
	ErrBadHeader    = errors.New("mod: bad or truncated store header")
	ErrBadPDFSpec   = errors.New("mod: unknown pdf kind")
	ErrNoWaypoints  = errors.New("mod: trip needs at least two waypoints")
	ErrBadSpeed     = errors.New("mod: trip speed must be positive")
)

// magic identifies the binary store format: "UTMOD2" since the
// spatio-textual extension (a mandatory tags section follows the
// trajectories — mandatory so every truncation is detected). "UTMOD1"
// files, written before tags existed, still load (no tags section).
var (
	magic   = [6]byte{'U', 'T', 'M', 'O', 'D', '2'}
	magicV1 = [6]byte{'U', 'T', 'M', 'O', 'D', '1'}
)

// PDFKind enumerates the serializable location-pdf families.
type PDFKind string

// Supported pdf kinds.
const (
	PDFUniform         PDFKind = "uniform"
	PDFBoundedGaussian PDFKind = "bounded-gaussian"
	PDFEpanechnikov    PDFKind = "epanechnikov"
)

// PDFSpec is a serializable description of a location pdf. R is the
// uncertainty radius (support); Sigma applies to the bounded Gaussian.
type PDFSpec struct {
	Kind  PDFKind `json:"kind"`
	R     float64 `json:"r"`
	Sigma float64 `json:"sigma,omitempty"`
}

// ToPDF materializes the spec.
func (s PDFSpec) ToPDF() (updf.RadialPDF, error) {
	if s.R <= 0 {
		return nil, fmt.Errorf("%w: nonpositive radius %g", ErrBadPDFSpec, s.R)
	}
	switch s.Kind {
	case PDFUniform:
		return updf.NewUniformDisk(s.R), nil
	case PDFBoundedGaussian:
		if s.Sigma <= 0 {
			return nil, fmt.Errorf("%w: bounded-gaussian needs sigma > 0", ErrBadPDFSpec)
		}
		return updf.NewBoundedGaussian(s.R, s.Sigma), nil
	case PDFEpanechnikov:
		return updf.NewEpanechnikov(s.R), nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrBadPDFSpec, s.Kind)
	}
}

// Store is a concurrent MOD holding the trajectory set and the shared
// uncertainty model. All methods are safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	trajs   map[int64]*trajectory.Trajectory
	tags    map[int64][]string // canonical tag sets (tags.go); absent = untagged
	spec    PDFSpec
	pdf     updf.RadialPDF
	version uint64 // bumped on every successful mutation

	// view and tagView cache the sorted snapshot (All, OIDs) and the tag-map
	// copy (AllWithTags) of the current version: built by the first reader
	// after a mutation, shared by every reader until the version moves.
	// viewMu serializes the builds, so readers racing on a new version get
	// one copy between them; it is taken under mu, and a reader that finds
	// the current version loaded takes neither.
	view    atomic.Pointer[View]
	tagView atomic.Pointer[tagView]
	viewMu  sync.Mutex

	// Cached segment R-tree, valid for store version idxVersion. An
	// update batch (live.go) chains it forward in one copy-on-write step;
	// a loading Insert only bumps version, which leaves the cache stale,
	// and the next BuildIndex call rebuilds (an STR bulk load of the live
	// segments alone). idxMu guards it and is taken before mu, never
	// under it.
	idxMu      sync.Mutex
	idx        *sindex.RTree
	idxVersion uint64
	idxFanout  int

	// segLive counts the store's live segments (guarded by mu, updated by
	// every mutation). The incremental index chain compares it against the
	// chained tree's entry count to decide when superseded entries have
	// piled up enough to warrant a compacting rebuild (live.go).
	segLive int

	// stats counts index maintenance work (guarded by idxMu).
	stats IndexStats
}

// NewStore creates a store whose trajectories share the uncertainty model
// described by spec.
func NewStore(spec PDFSpec) (*Store, error) {
	p, err := spec.ToPDF()
	if err != nil {
		return nil, err
	}
	return &Store{trajs: make(map[int64]*trajectory.Trajectory), spec: spec, pdf: p}, nil
}

// NewUniformStore is shorthand for the paper's default model: uniform pdf
// with uncertainty radius r.
func NewUniformStore(r float64) (*Store, error) {
	return NewStore(PDFSpec{Kind: PDFUniform, R: r})
}

// Spec returns the store's uncertainty model description.
func (s *Store) Spec() PDFSpec { return s.spec }

// PDF returns the shared location pdf.
func (s *Store) PDF() updf.RadialPDF { return s.pdf }

// Radius returns the shared uncertainty radius.
func (s *Store) Radius() float64 { return s.spec.R }

// Version returns a counter that increases on every successful mutation:
// an Insert, a SetTags, or each applied update. Caches keyed on the store (the batch query engine's
// processor memo) use it to detect staleness without content hashing.
func (s *Store) Version() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.version
}

// Insert adds a trajectory. The OID must be unused and the trajectory
// valid.
func (s *Store) Insert(tr *trajectory.Trajectory) error {
	if err := tr.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.trajs[tr.OID]; ok {
		return fmt.Errorf("%w: %d", ErrDuplicateOID, tr.OID)
	}
	s.trajs[tr.OID] = tr
	s.version++
	s.segLive += tr.NumSegments()
	return nil
}

// InsertAll inserts a batch, stopping at the first error.
func (s *Store) InsertAll(trs []*trajectory.Trajectory) error {
	for _, tr := range trs {
		if err := s.Insert(tr); err != nil {
			return err
		}
	}
	return nil
}

// Get returns the trajectory with the given OID.
func (s *Store) Get(oid int64) (*trajectory.Trajectory, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	tr, ok := s.trajs[oid]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotFound, oid)
	}
	return tr, nil
}

// Len returns the number of stored trajectories.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.trajs)
}

// OIDs returns the sorted object IDs (a fresh copy).
func (s *Store) OIDs() []int64 { return slices.Clone(s.View().OIDs) }

// View is the store's contents at one version: the trajectories sorted by
// OID and their OIDs in a parallel slice (so an OID resolves to its
// position by binary search over plain integers). A View is immutable and
// shared — by every caller of View, All and AllWithTags until the next
// mutation — so its slices must not be written to; both have cap == len,
// so appending to one reallocates instead of writing into the shared
// array.
type View struct {
	Version uint64
	Trajs   []*trajectory.Trajectory
	OIDs    []int64
}

// View returns the current version's snapshot, building it on the first
// read after a mutation: the copy and sort of N pointers is paid once per
// store version, not once per query.
func (s *Store) View() *View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.viewLocked()
}

// viewLocked is View for callers that hold s.mu (either mode). The first
// reader of a version builds it under s.viewMu; readers that raced it
// there find it built.
func (s *Store) viewLocked() *View {
	if v := s.view.Load(); v != nil && v.Version == s.version {
		return v
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	if v := s.view.Load(); v != nil && v.Version == s.version {
		return v
	}
	v := &View{Version: s.version, Trajs: make([]*trajectory.Trajectory, 0, len(s.trajs)), OIDs: make([]int64, len(s.trajs))}
	for _, tr := range s.trajs {
		v.Trajs = append(v.Trajs, tr)
	}
	slices.SortFunc(v.Trajs, func(a, b *trajectory.Trajectory) int { return cmp.Compare(a.OID, b.OID) })
	for i, tr := range v.Trajs {
		v.OIDs[i] = tr.OID
	}
	s.view.Store(v)
	return v
}

// All returns the trajectories sorted by OID: the current View's slice,
// shared and immutable.
func (s *Store) All() []*trajectory.Trajectory { return s.View().Trajs }

// BuildIndex returns an STR R-tree over all trajectory segments, expanding
// each segment's box by the uncertainty radius so range answers are
// conservative with respect to possible (not just expected) locations.
//
// The index is maintained version-aware: the tree is cached alongside the
// store's Version counter, a loading Insert invalidates it by bumping the
// version, and the next BuildIndex call rebuilds lazily. Read paths (the
// query-time candidate pre-pass) therefore get an always-fresh index
// without paying a rebuild on every store mutation.
//
// Update batches (ApplyUpdates, see live.go) instead chain the cached tree forward incrementally, inserting
// the new segments of a whole batch with one persistent
// sindex.RTree.Inserted step; SetTags takes the same step. After a plan revision the
// chained tree may retain superseded segment entries; that makes it a
// conservative superset index, which is exactly the contract the
// candidate pre-pass needs (every hit is refined against the live
// trajectory). They still cost the pre-pass — its KNN probes spend
// neighbors on them and its sweep walks them — so the chain is cut once
// they reach a quarter of the live segments (live.go), and the rebuild
// here holds the live segments alone.
//
// A non-positive fanout selects sindex.DefaultFanout (16, the STR node
// capacity that keeps leaf scans within a cache line or two of entries
// while staying shallow at MOD populations in the tens of thousands).
func (s *Store) BuildIndex(fanout int) *sindex.RTree {
	if fanout <= 0 {
		fanout = sindex.DefaultFanout
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	s.mu.RLock()
	version := s.version
	if s.idx != nil && s.idxVersion == version && s.idxFanout == fanout {
		s.mu.RUnlock()
		return s.idx
	}
	entries := make([]sindex.Entry, 0, s.segLive)
	for _, tr := range s.viewLocked().Trajs {
		entries = appendSegEntries(entries, tr, math.Inf(-1), s.spec.R)
	}
	s.mu.RUnlock()
	s.idx = sindex.NewRTree(entries, fanout)
	s.idxVersion = version
	s.idxFanout = fanout
	s.stats.SegBuilds++
	return s.idx
}

// appendSegEntries appends the index entries of tr's segments that end after
// from (-Inf: all of them): one per segment, its box grown by the
// uncertainty radius r.
func appendSegEntries(es []sindex.Entry, tr *trajectory.Trajectory, from, r float64) []sindex.Entry {
	for i := 0; i < tr.NumSegments(); i++ {
		seg, t0, t1 := tr.Segment(i)
		if t1 <= from {
			continue
		}
		es = append(es, sindex.Entry{ID: tr.OID, Box: geom.AABBOf(seg.A, seg.B).Expand(r), T0: t0, T1: t1})
	}
	return es
}

// PlanTrip builds the server-side shortest-travel-time trajectory of
// Section 2.1: constant cruise speed (distance units per time unit)
// through the waypoints, starting at startT. OID must be unused when the
// trip is inserted; PlanTrip itself does not insert.
func PlanTrip(oid int64, waypoints []geom.Point, startT, speed float64) (*trajectory.Trajectory, error) {
	if len(waypoints) < 2 {
		return nil, ErrNoWaypoints
	}
	if speed <= 0 {
		return nil, ErrBadSpeed
	}
	verts := make([]trajectory.Vertex, 0, len(waypoints))
	t := startT
	verts = append(verts, trajectory.Vertex{X: waypoints[0].X, Y: waypoints[0].Y, T: t})
	for i := 1; i < len(waypoints); i++ {
		d := waypoints[i].Dist(waypoints[i-1])
		if d == 0 {
			continue // skip repeated waypoints; zero-length segments are invalid
		}
		t += d / speed
		verts = append(verts, trajectory.Vertex{X: waypoints[i].X, Y: waypoints[i].Y, T: t})
	}
	return trajectory.New(oid, verts)
}

// --- persistence ---

// storeJSON is the JSON representation of a store.
type storeJSON struct {
	Spec  PDFSpec    `json:"spec"`
	Trajs []trajJSON `json:"trajectories"`
}

type trajJSON struct {
	OID   int64        `json:"oid"`
	Verts [][3]float64 `json:"verts"`
	Tags  []string     `json:"tags,omitempty"`
}

// SaveJSON writes the store as a single JSON document.
func (s *Store) SaveJSON(w io.Writer) error {
	s.mu.RLock()
	doc := storeJSON{Spec: s.spec}
	for _, tr := range s.viewLocked().Trajs {
		tj := trajJSON{OID: tr.OID, Verts: make([][3]float64, len(tr.Verts)), Tags: s.tags[tr.OID]}
		for i, v := range tr.Verts {
			tj.Verts[i] = [3]float64{v.X, v.Y, v.T}
		}
		doc.Trajs = append(doc.Trajs, tj)
	}
	s.mu.RUnlock()
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// LoadJSON reads a store previously written with SaveJSON.
func LoadJSON(r io.Reader) (*Store, error) {
	var doc storeJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("mod: decoding JSON store: %w", err)
	}
	st, err := NewStore(doc.Spec)
	if err != nil {
		return nil, err
	}
	for _, tj := range doc.Trajs {
		verts := make([]trajectory.Vertex, len(tj.Verts))
		for i, v := range tj.Verts {
			verts[i] = trajectory.Vertex{X: v[0], Y: v[1], T: v[2]}
		}
		tr, err := trajectory.New(tj.OID, verts)
		if err != nil {
			return nil, fmt.Errorf("mod: trajectory %d: %w", tj.OID, err)
		}
		if err := st.Insert(tr); err != nil {
			return nil, err
		}
		if len(tj.Tags) > 0 {
			if err := st.SetTags(tj.OID, tj.Tags); err != nil {
				return nil, fmt.Errorf("mod: trajectory %d tags: %w", tj.OID, err)
			}
		}
	}
	return st, nil
}

// SaveBinary writes the compact binary format: magic, pdf spec, count,
// then each trajectory via trajectory.WriteBinary, then (since the
// spatio-textual extension) an optional tags section: uint32 tagged-OID
// count followed by per OID an int64 OID, uint16 tag count, and
// uint16-length-prefixed tag bytes. Files written before the extension
// simply end after the trajectories; LoadBinary treats that EOF as "no
// tags", so old snapshots stay loadable.
func (s *Store) SaveBinary(w io.Writer) error {
	s.mu.RLock()
	trs := s.viewLocked().Trajs
	spec := s.spec
	tags := make(map[int64][]string, len(s.tags))
	for oid, ts := range s.tags {
		tags[oid] = ts
	}
	s.mu.RUnlock()
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	kind := []byte(spec.Kind)
	if err := binary.Write(w, binary.LittleEndian, uint8(len(kind))); err != nil {
		return err
	}
	if _, err := w.Write(kind); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, [2]float64{spec.R, spec.Sigma}); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(trs))); err != nil {
		return err
	}
	for _, tr := range trs {
		if err := tr.WriteBinary(w); err != nil {
			return err
		}
	}
	return writeTagsSection(w, tags)
}

// writeTagsSection appends the optional tags section, tagged OIDs in
// ascending order for deterministic bytes.
func writeTagsSection(w io.Writer, tags map[int64][]string) error {
	oids := make([]int64, 0, len(tags))
	for oid := range tags {
		oids = append(oids, oid)
	}
	slices.Sort(oids)
	if err := binary.Write(w, binary.LittleEndian, uint32(len(oids))); err != nil {
		return err
	}
	for _, oid := range oids {
		if err := binary.Write(w, binary.LittleEndian, oid); err != nil {
			return err
		}
		ts := tags[oid]
		if err := binary.Write(w, binary.LittleEndian, uint16(len(ts))); err != nil {
			return err
		}
		for _, tag := range ts {
			if err := binary.Write(w, binary.LittleEndian, uint16(len(tag))); err != nil {
				return err
			}
			if _, err := io.WriteString(w, tag); err != nil {
				return err
			}
		}
	}
	return nil
}

// LoadBinary reads a store previously written with SaveBinary.
func LoadBinary(r io.Reader) (*Store, error) {
	var m [6]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if m != magic && m != magicV1 {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadHeader, m)
	}
	hasTags := m == magic
	var kl uint8
	if err := binary.Read(r, binary.LittleEndian, &kl); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	kind := make([]byte, kl)
	if _, err := io.ReadFull(r, kind); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	var rs [2]float64
	if err := binary.Read(r, binary.LittleEndian, &rs); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	st, err := NewStore(PDFSpec{Kind: PDFKind(kind), R: rs[0], Sigma: rs[1]})
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < count; i++ {
		tr, err := trajectory.ReadBinary(r)
		if err != nil {
			return nil, fmt.Errorf("mod: trajectory %d/%d: %w", i+1, count, err)
		}
		if err := st.Insert(tr); err != nil {
			return nil, err
		}
	}
	if hasTags {
		if err := readTagsSection(r, st); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// readTagsSection reads the mandatory (in "UTMOD2" files) trailing tags
// section.
func readTagsSection(r io.Reader, st *Store) error {
	var tagged uint32
	if err := binary.Read(r, binary.LittleEndian, &tagged); err != nil {
		return fmt.Errorf("%w: tags section: %v", ErrBadHeader, err)
	}
	for i := uint32(0); i < tagged; i++ {
		var oid int64
		if err := binary.Read(r, binary.LittleEndian, &oid); err != nil {
			return fmt.Errorf("%w: tags section: %v", ErrBadHeader, err)
		}
		var n uint16
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return fmt.Errorf("%w: tags section: %v", ErrBadHeader, err)
		}
		ts := make([]string, n)
		for j := range ts {
			var tl uint16
			if err := binary.Read(r, binary.LittleEndian, &tl); err != nil {
				return fmt.Errorf("%w: tags section: %v", ErrBadHeader, err)
			}
			buf := make([]byte, tl)
			if _, err := io.ReadFull(r, buf); err != nil {
				return fmt.Errorf("%w: tags section: %v", ErrBadHeader, err)
			}
			ts[j] = string(buf)
		}
		if err := st.SetTags(oid, ts); err != nil {
			return fmt.Errorf("mod: tags for %d: %w", oid, err)
		}
	}
	return nil
}
