package engine

// Kind names one of the continuous query variants of the paper's Section 4
// (plus the fixed-time instant variants and the whole-MOD iterations).
// Category 1/2 kinds answer a boolean about Request.OID; Category 3/4
// kinds retrieve an OID list.
type Kind string

// Supported query kinds.
const (
	// Category 1: single object vs the Level-1 envelope.
	KindUQ11 Kind = "UQ11" // ∃t
	KindUQ12 Kind = "UQ12" // ∀t
	KindUQ13 Kind = "UQ13" // ≥ X of the window
	// Category 2: single object vs the Level-k envelope.
	KindUQ21 Kind = "UQ21"
	KindUQ22 Kind = "UQ22"
	KindUQ23 Kind = "UQ23"
	// Category 3: whole-MOD retrieval vs the Level-1 envelope.
	KindUQ31 Kind = "UQ31"
	KindUQ32 Kind = "UQ32"
	KindUQ33 Kind = "UQ33"
	// Category 4: whole-MOD retrieval vs the Level-k envelope.
	KindUQ41 Kind = "UQ41"
	KindUQ42 Kind = "UQ42"
	KindUQ43 Kind = "UQ43"
	// Fixed-time instant variants.
	KindNNAt      Kind = "NN@"      // single object at T
	KindRankAt    Kind = "RANK@"    // single object possible rank-k at T
	KindAllNNAt   Kind = "ALLNN@"   // all objects at T
	KindAllRankAt Kind = "ALLRANK@" // all possible rank-k objects at T
	// KindAllPairs computes every object's possible-NN set over the window
	// (all-pairs continuous probabilistic NN; QueryOID is ignored).
	KindAllPairs Kind = "ALLPAIRS"
	// KindReverse retrieves the objects for which object OID can be the
	// nearest neighbor (reverse continuous probabilistic NN; QueryOID is
	// ignored).
	KindReverse Kind = "REVERSE"
)

// kindInfo is what every layer dispatches on about a kind.
type kindInfo struct {
	target bool // the answer is about one object, Request.OID
	ranked bool // evaluates against the Level-K envelope
	filter bool // a whole-MOD list filter over one preprocessing
	prob   bool // takes a probability bound P > 0
}

// kindTable is the engine's kind table, in declaration order: the one
// place a kind is known. Normalize, the cluster router, the standing-query
// hub and the gateway's metric labels all read it.
var kindTable = []struct {
	kind Kind
	kindInfo
}{
	{KindUQ11, kindInfo{target: true, prob: true}},
	{KindUQ12, kindInfo{target: true, prob: true}},
	{KindUQ13, kindInfo{target: true, prob: true}},
	{KindUQ21, kindInfo{target: true, ranked: true}},
	{KindUQ22, kindInfo{target: true, ranked: true}},
	{KindUQ23, kindInfo{target: true, ranked: true}},
	{KindUQ31, kindInfo{filter: true, prob: true}},
	{KindUQ32, kindInfo{filter: true, prob: true}},
	{KindUQ33, kindInfo{filter: true, prob: true}},
	{KindUQ41, kindInfo{filter: true, ranked: true}},
	{KindUQ42, kindInfo{filter: true, ranked: true}},
	{KindUQ43, kindInfo{filter: true, ranked: true}},
	{KindNNAt, kindInfo{target: true, prob: true}},
	{KindRankAt, kindInfo{target: true, ranked: true}},
	{KindAllNNAt, kindInfo{filter: true, prob: true}},
	{KindAllRankAt, kindInfo{filter: true, ranked: true}},
	{KindAllPairs, kindInfo{}},
	{KindReverse, kindInfo{target: true}},
}

// info looks the kind up in the table; ok is false for an unknown kind.
func (k Kind) info() (kindInfo, bool) {
	for _, e := range kindTable {
		if e.kind == k {
			return e.kindInfo, true
		}
	}
	return kindInfo{}, false
}

// Known reports whether the engine accepts the kind.
func (k Kind) Known() bool {
	_, ok := k.info()
	return ok
}

// IsWholeMODFilter reports whether the kind is a whole-MOD list filter —
// the only kinds a restricted-domain evaluation (Evaluate's own) is
// defined for, and hence the kinds a cluster router verifies against its
// gathered survivors.
func (k Kind) IsWholeMODFilter() bool {
	in, _ := k.info()
	return in.filter
}

// NeedsProcessor reports whether the kind evaluates against one (query
// trajectory, window) preprocessing — and so one bound exchange and one
// zone profile. KindAllPairs and KindReverse iterate query trajectories
// instead: every object is a query.
func (k Kind) NeedsProcessor() bool {
	return k != KindAllPairs && k != KindReverse
}

// Target reports the single object the request's answer is about, when
// its kind has one: the object whose own motion the answer depends on
// directly, and which a refinement store must contain (or prove globally
// absent) for error behavior to match a single store.
func (r Request) Target() (int64, bool) {
	in, _ := r.Kind.info()
	return r.OID, in.target
}

// item is the answer of one dispatched request before Do wraps it in a
// Result: exactly one of Bool/OIDs is meaningful, per IsBool.
type item struct {
	IsBool bool
	Bool   bool
	OIDs   []int64
	Err    error
}
