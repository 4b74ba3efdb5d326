package dpipe

import (
	"fmt"

	"github.com/fusedmindlab/transfusion/internal/cascade"
	"github.com/fusedmindlab/transfusion/internal/graph"
	"github.com/fusedmindlab/transfusion/internal/perf"
)

// LayerMapping is the Table 1 dimension mapping of a layer onto the 2D PE
// array: which index labels spread across rows and which across columns.
type LayerMapping struct {
	Rows []string
	Cols []string
}

// TableMapping returns the Table 1 mapping for each Transformer layer:
//
//	QKV        rows p/m0        cols h,e (and h,f for BV)
//	MHA        rows p           cols m0
//	LayerNorm  rows p           cols h,f
//	FFN        rows p           cols s
//
// Two extensions beyond the table's wording, both implied by §3.3: in MHA,
// the attention-times-V contraction (SLNV / AV) reduces over m0, so its
// output spreads the value embedding f across columns; in the FFN, the
// second linear layer reduces over s, so its output spreads (h, f) across
// columns. Each op maps whichever of the layer's column labels its output
// actually carries.
func TableMapping(layer string) (LayerMapping, error) {
	switch layer {
	case "QKV":
		return LayerMapping{Rows: []string{"p", "m0"}, Cols: []string{"h", "e", "f"}}, nil
	case "MHA":
		return LayerMapping{Rows: []string{"p"}, Cols: []string{"m0", "f"}}, nil
	case "AddLayerNorm":
		return LayerMapping{Rows: []string{"p"}, Cols: []string{"h", "f"}}, nil
	case "FFN":
		return LayerMapping{Rows: []string{"p"}, Cols: []string{"s", "h", "f"}}, nil
	default:
		return LayerMapping{}, fmt.Errorf("dpipe: no Table 1 mapping for layer %q", layer)
	}
}

func intersect(candidates, present []string) []string {
	set := make(map[string]bool, len(present))
	for _, s := range present {
		set[s] = true
	}
	var out []string
	for _, c := range candidates {
		if set[c] {
			out = append(out, c)
		}
	}
	return out
}

// FromCascade builds a schedulable Problem from a cascade's loop Body: the
// per-epoch OpSpecs carry the Table 1 PE mapping, the DAG encodes
// producer-consumer edges among body Einsums, and the cascade's state
// variables become cross-epoch StateEdges. dims gives the per-epoch extent
// of every index label (e.g. p is the query-tile length, m0 the inner
// key/value tile); epochs is the inner-tile trip count.
func FromCascade(c *cascade.Cascade, dims map[string]int, epochs int64) (*Problem, error) {
	mapping, err := TableMapping(c.Name)
	if err != nil {
		return nil, err
	}
	ops := make(map[string]perf.OpSpec, len(c.Body))
	deps := graph.New()
	produced := make(map[string]bool, len(c.Body))
	for _, e := range c.Body {
		produced[e.Name] = true
	}
	for _, e := range c.Body {
		opDims := make(map[string]int)
		for _, idx := range e.AllIndices() {
			size, ok := dims[idx]
			if !ok {
				return nil, fmt.Errorf("dpipe: cascade %s: einsum %s: no extent for index %q", c.Name, e.Name, idx)
			}
			opDims[idx] = size
		}
		// Rows spread independent output elements; columns may additionally
		// spread a reduction dimension (spatial reduction along the array,
		// as a systolic GEMM reduces along its columns).
		colCandidates := append(append([]string{}, e.OutIdx...), e.ReductionIndices()...)
		ops[e.Name] = perf.OpSpec{
			E:      e,
			Dims:   opDims,
			RowIdx: intersect(mapping.Rows, e.OutIdx),
			ColIdx: intersect(mapping.Cols, colCandidates),
		}
		deps.AddNode(e.Name)
		for _, in := range e.InputTensors() {
			if produced[in] && in != e.Name {
				deps.AddEdge(in, e.Name)
			}
		}
	}

	var stateEdges []StateEdge
	for _, s := range c.State {
		for _, e := range c.Body {
			for _, in := range e.InputTensors() {
				if in == s.Name {
					stateEdges = append(stateEdges, StateEdge{From: s.NextName(), To: e.Name})
				}
			}
		}
	}

	return &Problem{
		Name:       c.Name,
		Ops:        ops,
		Deps:       deps,
		StateEdges: stateEdges,
		Epochs:     epochs,
	}, nil
}
