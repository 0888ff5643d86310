package core

import (
	"encoding/json"
	"io"
)

// treeJSON is the wire representation of an IPAC-NN tree: the conceptual
// root (query parameters) plus the level-1 nodes with nested children —
// the interval structure of the paper's Figure 2.
type treeJSON struct {
	QueryOID int64      `json:"query_oid"`
	Tb       float64    `json:"tb"`
	Te       float64    `json:"te"`
	R        float64    `json:"r"`
	Pruned   []int64    `json:"pruned,omitempty"`
	Kept     []int64    `json:"kept,omitempty"`
	Roots    []nodeJSON `json:"roots"`
}

type nodeJSON struct {
	ID         int64           `json:"id"`
	T0         float64         `json:"t0"`
	T1         float64         `json:"t1"`
	Level      int             `json:"level"`
	Descriptor *descriptorJSON `json:"descriptor,omitempty"`
	Children   []nodeJSON      `json:"children,omitempty"`
}

type descriptorJSON struct {
	MinProb float64      `json:"min_prob"`
	MaxProb float64      `json:"max_prob"`
	Samples [][2]float64 `json:"samples"` // (t, prob)
}

// WriteJSON serializes the tree's answer structure (not the distance
// functions — the answer is self-contained per the paper's Section 1
// semantics).
func (t *Tree) WriteJSON(w io.Writer) error {
	doc := treeJSON{
		QueryOID: t.QueryOID, Tb: t.Tb, Te: t.Te, R: t.R,
		Pruned: t.PrunedOIDs, Kept: t.KeptOIDs,
	}
	for _, n := range t.Roots {
		doc.Roots = append(doc.Roots, nodeToJSON(n))
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

func nodeToJSON(n *Node) nodeJSON {
	out := nodeJSON{ID: n.ID, T0: n.T0, T1: n.T1, Level: n.Level}
	if n.Descriptor != nil {
		d := &descriptorJSON{MinProb: n.Descriptor.MinProb, MaxProb: n.Descriptor.MaxProb}
		for _, s := range n.Descriptor.Samples {
			d.Samples = append(d.Samples, [2]float64{s.T, s.Prob})
		}
		out.Descriptor = d
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, nodeToJSON(c))
	}
	return out
}
