package engine

// Kind names one of the continuous query variants of the paper's Section 4
// (plus the fixed-time instant variants). Category 1/2 kinds answer a
// boolean about Request.OID; Category 3/4 kinds retrieve an OID list.
type Kind string

// Supported query kinds.
const (
	// Category 1: single object vs the Level-1 envelope.
	KindUQ11 Kind = "UQ11" // ∃t possible-NN
	KindUQ12 Kind = "UQ12" // ∀t possible-NN
	KindUQ13 Kind = "UQ13" // possible-NN ≥ X% of the window
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
	KindNNAt      Kind = "NN@"      // single object possible-NN at T
	KindRankAt    Kind = "RANK@"    // single object possible rank-k at T
	KindAllNNAt   Kind = "ALLNN@"   // all possible-NN objects at T
	KindAllRankAt Kind = "ALLRANK@" // all possible rank-k objects at T
)

// item is the answer of one dispatched request before Do wraps it in a
// Result: exactly one of Bool/OIDs is meaningful, per IsBool.
type item struct {
	IsBool bool
	Bool   bool
	OIDs   []int64
	Err    error
}
