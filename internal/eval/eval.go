// Package eval executes Extended Einsums (internal/einsum) on dense tensors
// (internal/tensor). It is the reference interpreter: the cascade executor
// uses it to run the paper's Einsum Cascades numerically, and the test suite
// uses it to prove the cascades are semantically equivalent to naive
// implementations of attention, LayerNorm, and the FFN.
//
// The interpreter is deliberately simple and allocation-heavy; it exists for
// correctness validation, not performance. The performance characteristics
// that the paper studies are *modelled* analytically in internal/perf, never
// measured from this interpreter.
package eval

import (
	"fmt"
	"math"

	"github.com/fusedmindlab/transfusion/internal/einsum"
	"github.com/fusedmindlab/transfusion/internal/tensor"
)

// Env is the execution environment: named tensors visible to the Einsum.
type Env map[string]*tensor.Tensor

// Sizes derives a dimension-size environment from the tensors in the env.
// It returns an error if two tensors disagree about a dimension's extent.
func (e Env) Sizes() (map[string]int, error) {
	sizes := make(map[string]int)
	for name, t := range e {
		for _, d := range t.Dims() {
			if prev, ok := sizes[d.Name]; ok && prev != d.Size {
				return nil, fmt.Errorf("eval: dimension %q has conflicting sizes %d (in %s) and %d", d.Name, d.Size, name, prev)
			}
			sizes[d.Name] = d.Size
		}
	}
	return sizes, nil
}

// Apply executes one Einsum against env and returns the output tensor. The
// dimension sizes are taken from dimSizes, which must cover every index label
// of the Einsum; callers typically build it once per cascade from Env.Sizes
// plus any indices not witnessed by an input (there are none in practice,
// since Validate rejects free output indices).
func Apply(e *einsum.Einsum, env Env, dimSizes map[string]int) (*tensor.Tensor, error) {
	if err := e.Validate(dimSizes); err != nil {
		return nil, err
	}
	inputs := make([]*tensor.Tensor, len(e.Inputs))
	for i, arg := range e.Inputs {
		t, ok := env[arg.Tensor]
		if !ok {
			return nil, fmt.Errorf("eval: einsum %s: input tensor %q not in environment", e.Name, arg.Tensor)
		}
		if t.Rank() != len(arg.Idx) {
			return nil, fmt.Errorf("eval: einsum %s: operand %s has rank %d but %d index labels", e.Name, arg.Tensor, t.Rank(), len(arg.Idx))
		}
		// Every operand dimension must match the environment's extent for
		// its label; a mismatch would otherwise surface as an out-of-range
		// panic deep inside the loop nest.
		for pos, d := range t.Dims() {
			if want := dimSizes[arg.Idx[pos]]; d.Size != want {
				return nil, fmt.Errorf("eval: einsum %s: operand %s dim %d (%s) has size %d, want %d",
					e.Name, arg.Tensor, pos, arg.Idx[pos], d.Size, want)
			}
		}
		inputs[i] = t
	}

	outDims := make([]tensor.Dim, len(e.OutIdx))
	for i, idx := range e.OutIdx {
		outDims[i] = tensor.Dim{Name: idx, Size: dimSizes[idx]}
	}
	out := tensor.New(outDims...)

	redIdx := e.ReductionIndices()
	coord := make(map[string]int, len(e.OutIdx)+len(redIdx))
	vals := make([]float64, len(e.Inputs))

	var body func(level int) float64
	body = func(level int) float64 {
		if level == len(redIdx) {
			for i, arg := range e.Inputs {
				vals[i] = atLabels(inputs[i], arg.Idx, coord)
			}
			return e.CombineValue(vals)
		}
		idx := redIdx[level]
		acc := identity(e.Reduce)
		for v := 0; v < dimSizes[idx]; v++ {
			coord[idx] = v
			acc = reduce(e.Reduce, acc, body(level+1))
		}
		delete(coord, idx)
		return acc
	}

	var outer func(level int)
	outer = func(level int) {
		if level == len(e.OutIdx) {
			out.Set(coord, body(0))
			return
		}
		idx := e.OutIdx[level]
		for v := 0; v < dimSizes[idx]; v++ {
			coord[idx] = v
			outer(level + 1)
		}
		delete(coord, idx)
	}
	outer(0)
	return out, nil
}

// atLabels reads t at the coordinate determined by mapping t's dimensions
// through the operand's index labels. Labels address t positionally: label
// i names t's dimension i in the Einsum's index space, so an operand can
// bind a tensor whose stored dimension names differ from the cascade's
// labels (e.g. a weight tensor reused across layers). Every label is
// resolvable by construction: an operand's labels all appear in the output
// or reduction index sets, both fully bound in coord when the loop nest
// reaches its innermost level; an unresolved label reads the origin rather
// than crashing the interpreter.
func atLabels(t *tensor.Tensor, labels []string, coord map[string]int) float64 {
	dims := t.Dims()
	local := make(map[string]int, len(dims))
	for i, d := range dims {
		local[d.Name] = coord[labels[i]]
	}
	return t.At(local)
}

func identity(op einsum.ReduceOp) float64 {
	switch op {
	case einsum.ReduceMax:
		return math.Inf(-1)
	default:
		return 0
	}
}

func reduce(op einsum.ReduceOp, acc, v float64) float64 {
	switch op {
	case einsum.ReduceMax:
		return math.Max(acc, v)
	case einsum.ReduceSum:
		return acc + v
	default:
		// ReduceNone: body is called exactly once per output coordinate
		// (no reduction indices), so the "accumulation" is the value itself.
		return v
	}
}
