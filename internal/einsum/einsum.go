// Package einsum defines the Extended Einsum intermediate representation
// used throughout TransFusion. An Extended Einsum (Nayak et al., FuseMax)
// generalises classic tensor contraction notation with user-defined map and
// reduce operations, which is exactly what is needed to express streaming
// softmax, LayerNorm, and the other non-GEMM stages of a Transformer layer.
//
// An Einsum here is a single equation such as
//
//	BQK[h,m1,m0,p] = Q[h,e,p] * BK[h,e,m1,m0]      (multiply, sum over e)
//	LM[h,m1,p]     = max_{m0} BQK[h,m1,m0,p]        (identity map, max reduce)
//	SLN[h,m1,m0,p] = exp(BQK[h,m1,m0,p] - RM[h,p])  (binary map, no reduce)
//
// The IR carries everything the rest of the system needs:
//   - the functional semantics (Combine + Reduce), executed by internal/eval;
//   - the index structure, from which internal/perf derives the compute load
//     of Eq. 40 in the paper (product of output dims x reduction dims);
//   - an operation class (Class) that baseline dataflows use for their static
//     1D-array / 2D-array assignments.
package einsum

import (
	"fmt"
	"sort"
	"strings"
)

// ReduceOp identifies how values mapping to the same output coordinate are
// combined.
type ReduceOp int

const (
	// ReduceNone means the map output is stored directly; the Einsum must
	// then have no reduction indices.
	ReduceNone ReduceOp = iota
	// ReduceSum accumulates with addition (identity 0).
	ReduceSum
	// ReduceMax accumulates with max (identity -inf).
	ReduceMax
)

// String returns the reduction name.
func (r ReduceOp) String() string {
	switch r {
	case ReduceNone:
		return "none"
	case ReduceSum:
		return "sum"
	case ReduceMax:
		return "max"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(r))
	}
}

// Class is a coarse classification of the Einsum's arithmetic, used by the
// performance model and by the baselines' static PE-array assignments
// (GEMM-like contractions go to the 2D array, streaming vector work to the
// 1D array in all prior-work dataflows).
type Class int

const (
	// ClassContraction is a multiply-accumulate contraction (GEMM-like):
	// a multiplication map with a sum reduction over at least one index.
	ClassContraction Class = iota
	// ClassVector is elementwise/streaming map work (add, sub, mul by a
	// broadcast scalar, exp, division, ...), possibly with a reduction that
	// is not a MAC pattern (e.g. max or sum over an existing tensor).
	ClassVector
)

// String returns the class name.
func (c Class) String() string {
	if c == ClassContraction {
		return "contraction"
	}
	return "vector"
}

// CombineFunc merges one value from each input operand into the value fed to
// the reduction (or stored directly when ReduceNone).
type CombineFunc func(vals []float64) float64

// Arg is one input operand: the name of the tensor it reads and the index
// labels addressing it.
type Arg struct {
	Tensor string
	Idx    []string
}

// Einsum is a single Extended Einsum equation.
type Einsum struct {
	// Name is the output tensor name; it is also the node identity in the
	// computation DAG, so it must be unique within a cascade.
	Name string
	// OutIdx are the output index labels.
	OutIdx []string
	// Inputs are the operands. An operand whose index list omits some output
	// indices broadcasts along them (e.g. the per-token mean in LayerNorm).
	Inputs []Arg
	// Combine merges one scalar per input; nil means: single input identity,
	// or multiplication for exactly two inputs (classic einsum semantics).
	Combine CombineFunc
	// Reduce combines values across the reduction indices.
	Reduce ReduceOp
	// ClassHint overrides the inferred Class when set (>= 0). Use -1 to infer.
	ClassHint Class
	// combineIsMul records that the default product combine is in use; needed
	// for class inference when Combine is nil.
	combineIsMul bool
}

// New constructs an Einsum with the default combine semantics: identity for
// one input, product for two or more inputs, ReduceSum over any reduction
// indices (classic einsum), and inferred class.
func New(name string, out []string, inputs ...Arg) *Einsum {
	e := &Einsum{Name: name, OutIdx: out, Inputs: inputs, Reduce: ReduceSum, ClassHint: -1, combineIsMul: true}
	if len(e.ReductionIndices()) == 0 {
		e.Reduce = ReduceNone
	}
	return e
}

// Map constructs a map-only Einsum (no reduction) with an explicit combine
// function; it is classified as vector work.
func Map(name string, out []string, combine CombineFunc, inputs ...Arg) *Einsum {
	return &Einsum{Name: name, OutIdx: out, Inputs: inputs, Combine: combine, Reduce: ReduceNone, ClassHint: ClassVector}
}

// Reduction constructs a reduce Einsum with the identity map over a single
// input; classified as vector work (streaming reductions run on the 1D array
// in the baseline dataflows).
func Reduction(name string, out []string, op ReduceOp, input Arg) *Einsum {
	return &Einsum{Name: name, OutIdx: out, Inputs: []Arg{input}, Reduce: op, ClassHint: ClassVector}
}

// In builds an Arg; a convenience for cascade definitions.
func In(tensor string, idx ...string) Arg { return Arg{Tensor: tensor, Idx: idx} }

// Class returns the operation class: ClassContraction for a product map with
// a sum reduction (a MAC pattern), ClassVector otherwise, unless overridden
// by ClassHint.
func (e *Einsum) Class() Class {
	if e.ClassHint >= 0 {
		return e.ClassHint
	}
	if e.combineIsMul && len(e.Inputs) >= 2 && e.Reduce == ReduceSum && len(e.ReductionIndices()) > 0 {
		return ClassContraction
	}
	return ClassVector
}

// InputTensors returns the distinct tensor names read by this Einsum, in
// first-appearance order.
func (e *Einsum) InputTensors() []string {
	seen := make(map[string]bool, len(e.Inputs))
	var names []string
	for _, in := range e.Inputs {
		if !seen[in.Tensor] {
			seen[in.Tensor] = true
			names = append(names, in.Tensor)
		}
	}
	return names
}

// AllIndices returns the union of output and input index labels, sorted.
func (e *Einsum) AllIndices() []string {
	set := make(map[string]bool)
	for _, i := range e.OutIdx {
		set[i] = true
	}
	for _, in := range e.Inputs {
		for _, i := range in.Idx {
			set[i] = true
		}
	}
	out := make([]string, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Strings(out)
	return out
}

// ReductionIndices returns the index labels that appear in at least one
// input but not in the output — the dimensions reduced over.
func (e *Einsum) ReductionIndices() []string {
	outSet := make(map[string]bool, len(e.OutIdx))
	for _, i := range e.OutIdx {
		outSet[i] = true
	}
	set := make(map[string]bool)
	for _, in := range e.Inputs {
		for _, i := range in.Idx {
			if !outSet[i] {
				set[i] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Strings(out)
	return out
}

// Validate checks structural well-formedness against a dimension-size
// environment: every index label must have a positive size in env, every
// output index must be produced by some input (no free output indices), and
// ReduceNone Einsums must have no reduction indices.
func (e *Einsum) Validate(env map[string]int) error {
	if e.Name == "" {
		return fmt.Errorf("einsum: empty name")
	}
	if len(e.Inputs) == 0 {
		return fmt.Errorf("einsum %s: no inputs", e.Name)
	}
	inSet := make(map[string]bool)
	for _, in := range e.Inputs {
		for _, i := range in.Idx {
			inSet[i] = true
		}
	}
	for _, i := range e.OutIdx {
		if !inSet[i] {
			return fmt.Errorf("einsum %s: output index %q not present in any input", e.Name, i)
		}
	}
	for _, i := range e.AllIndices() {
		size, ok := env[i]
		if !ok {
			return fmt.Errorf("einsum %s: index %q has no size in environment", e.Name, i)
		}
		if size <= 0 {
			return fmt.Errorf("einsum %s: index %q has non-positive size %d", e.Name, i, size)
		}
	}
	if e.Reduce == ReduceNone && len(e.ReductionIndices()) > 0 {
		return fmt.Errorf("einsum %s: ReduceNone with reduction indices %v", e.Name, e.ReductionIndices())
	}
	if e.Combine == nil && !e.combineIsMul && len(e.Inputs) > 1 {
		return fmt.Errorf("einsum %s: multiple inputs but no combine function", e.Name)
	}
	return nil
}

// OutputSize returns the number of output elements under env.
func (e *Einsum) OutputSize(env map[string]int) int64 {
	return indexProduct(e.OutIdx, env)
}

// ComputeLoad implements Eq. 40 of the paper: the number of scalar map
// operations, computed as the product of the output dimension extents times
// the product of the reduction dimension extents.
func (e *Einsum) ComputeLoad(env map[string]int) int64 {
	return indexProduct(e.OutIdx, env) * indexProduct(e.ReductionIndices(), env)
}

func indexProduct(idx []string, env map[string]int) int64 {
	p := int64(1)
	for _, i := range idx {
		size, ok := env[i]
		if !ok {
			panic(fmt.Sprintf("einsum: index %q has no size in environment", i))
		}
		p *= int64(size)
	}
	return p
}

// CombineValue applies the Einsum's map stage to one scalar per input.
func (e *Einsum) CombineValue(vals []float64) float64 {
	if e.Combine != nil {
		return e.Combine(vals)
	}
	// Default semantics: identity for a single input, product otherwise.
	prod := vals[0]
	for _, v := range vals[1:] {
		prod *= v
	}
	return prod
}

// String renders the equation in extended-einsum notation, e.g.
// "BQK[h,m1,m0,p] = Q[h,e,p], BK[h,e,m1,m0] :: sum(e)".
func (e *Einsum) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%s] =", e.Name, strings.Join(e.OutIdx, ","))
	for i, in := range e.Inputs {
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, " %s[%s]", in.Tensor, strings.Join(in.Idx, ","))
	}
	if red := e.ReductionIndices(); len(red) > 0 {
		fmt.Fprintf(&b, " :: %s(%s)", e.Reduce, strings.Join(red, ","))
	}
	return b.String()
}
