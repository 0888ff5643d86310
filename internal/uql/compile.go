package uql

import "repro/internal/engine"

// Compile translates a statement into the engine.Request that answers it.
// It is total: every statement Parse accepts compiles, and the Request
// passes Validate. The predicate's bound becomes Request.P — 0 for the
// possible-NN `> 0`, the threshold of `> p`, and 1 for CertainNN — and
// the target, quantifier and rank pick the kind.
func Compile(st *Stmt) engine.Request {
	req := engine.Request{
		QueryOID: st.QueryOID, Tb: st.Tb, Te: st.Te,
		OID: st.TargetOID, K: st.Rank, X: st.Percent, T: st.FixedT,
		P: st.Threshold, Where: st.Where,
	}
	if st.Certain {
		req.P = 1
	}
	// One row per target and rank, indexed by quantifier: EXISTS, FORALL,
	// ATLEAST, AT.
	var row [4]engine.Kind
	switch {
	case st.AllObjects && st.Rank > 0:
		row = [4]engine.Kind{engine.KindUQ41, engine.KindUQ42, engine.KindUQ43, engine.KindAllRankAt}
	case st.AllObjects:
		row = [4]engine.Kind{engine.KindUQ31, engine.KindUQ32, engine.KindUQ33, engine.KindAllNNAt}
	case st.Rank > 0:
		row = [4]engine.Kind{engine.KindUQ21, engine.KindUQ22, engine.KindUQ23, engine.KindRankAt}
	default:
		row = [4]engine.Kind{engine.KindUQ11, engine.KindUQ12, engine.KindUQ13, engine.KindNNAt}
	}
	if st.Quant >= 0 && int(st.Quant) < len(row) {
		req.Kind = row[st.Quant]
	}
	return req
}
