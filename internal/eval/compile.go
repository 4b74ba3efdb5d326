package eval

import (
	"fmt"

	"github.com/fusedmindlab/transfusion/internal/einsum"
	"github.com/fusedmindlab/transfusion/internal/tensor"
)

// Compiled execution: instead of the map-based recursive interpreter in
// Apply, a Program precomputes per-operand strides aligned to a single
// loop nest (output indices outermost, reduction indices innermost) and
// walks flat offsets with an odometer. Semantics are identical to Apply —
// enforced by equivalence tests — but evaluation is one to two orders of
// magnitude faster, which lets the functional test-bench run realistically
// sized cascades.

// Program is a compiled Einsum bound to concrete input tensors.
type Program struct {
	e       *einsum.Einsum
	inputs  []*tensor.Tensor
	outDims []tensor.Dim
	// loop nest: extents and, per operand, the stride each loop level
	// advances that operand's flat offset by (0 when the operand does not
	// carry the index).
	extents   []int
	strides   [][]int // [operand][level]
	numOut    int     // loop levels 0..numOut-1 are output indices
	reduce    einsum.ReduceOp
	nOperands int
}

// Compile binds an Einsum to its input tensors under the dimension-size
// environment, validating shapes. The returned Program can be Run once (it
// allocates a fresh output per Run).
func Compile(e *einsum.Einsum, env Env, dimSizes map[string]int) (*Program, error) {
	if err := e.Validate(dimSizes); err != nil {
		return nil, err
	}
	p := &Program{e: e, reduce: e.Reduce, nOperands: len(e.Inputs)}

	for i, arg := range e.Inputs {
		t, ok := env[arg.Tensor]
		if !ok {
			return nil, fmt.Errorf("eval: compile %s: input tensor %q not in environment", e.Name, arg.Tensor)
		}
		if t.Rank() != len(arg.Idx) {
			return nil, fmt.Errorf("eval: compile %s: operand %s has rank %d but %d labels", e.Name, arg.Tensor, t.Rank(), len(arg.Idx))
		}
		for pos, d := range t.Dims() {
			want := dimSizes[arg.Idx[pos]]
			if d.Size != want {
				return nil, fmt.Errorf("eval: compile %s: operand %s dim %d (%s) has size %d, want %d",
					e.Name, arg.Tensor, pos, arg.Idx[pos], d.Size, want)
			}
		}
		p.inputs = append(p.inputs, t)
		_ = i
	}

	// Loop order: output indices then reduction indices.
	loops := append(append([]string{}, e.OutIdx...), e.ReductionIndices()...)
	p.numOut = len(e.OutIdx)
	p.extents = make([]int, len(loops))
	for i, idx := range loops {
		p.extents[i] = dimSizes[idx]
	}
	for i, idx := range e.OutIdx {
		p.outDims = append(p.outDims, tensor.Dim{Name: idx, Size: dimSizes[idx]})
		_ = i
	}

	// Per-operand stride per loop level.
	p.strides = make([][]int, len(e.Inputs))
	for oi, arg := range e.Inputs {
		ts := p.inputs[oi].Strides()
		row := make([]int, len(loops))
		for li, loopIdx := range loops {
			for pos, label := range arg.Idx {
				if label == loopIdx {
					row[li] += ts[pos]
				}
			}
		}
		p.strides[oi] = row
	}
	return p, nil
}

// Run executes the program and returns a freshly allocated output tensor.
func (p *Program) Run() *tensor.Tensor {
	out := tensor.New(p.outDims...)
	outData := out.Data()

	counters := make([]int, len(p.extents))
	offsets := make([]int, p.nOperands)
	datas := make([][]float64, p.nOperands)
	for i, t := range p.inputs {
		datas[i] = t.Data()
	}
	vals := make([]float64, p.nOperands)

	redLevels := len(p.extents) - p.numOut
	outPos := 0
	for {
		// Inner reduction accumulation at the current output coordinate.
		acc := identity(p.reduce)
		for {
			for i := 0; i < p.nOperands; i++ {
				vals[i] = datas[i][offsets[i]]
			}
			acc = reduce(p.reduce, acc, p.e.CombineValue(vals))

			// Advance the reduction odometer (innermost levels).
			level := len(p.extents) - 1
			for ; level >= p.numOut; level-- {
				counters[level]++
				for i := 0; i < p.nOperands; i++ {
					offsets[i] += p.strides[i][level]
				}
				if counters[level] < p.extents[level] {
					break
				}
				// Reset this level.
				for i := 0; i < p.nOperands; i++ {
					offsets[i] -= p.strides[i][level] * p.extents[level]
				}
				counters[level] = 0
			}
			if level < p.numOut || redLevels == 0 {
				break
			}
		}
		outData[outPos] = acc
		outPos++

		// Advance the output odometer.
		level := p.numOut - 1
		for ; level >= 0; level-- {
			counters[level]++
			for i := 0; i < p.nOperands; i++ {
				offsets[i] += p.strides[i][level]
			}
			if counters[level] < p.extents[level] {
				break
			}
			for i := 0; i < p.nOperands; i++ {
				offsets[i] -= p.strides[i][level] * p.extents[level]
			}
			counters[level] = 0
		}
		if level < 0 {
			break
		}
	}
	return out
}

// ApplyFast executes one Einsum via the compiled path; a drop-in
// replacement for Apply with identical semantics.
func ApplyFast(e *einsum.Einsum, env Env, dimSizes map[string]int) (*tensor.Tensor, error) {
	p, err := Compile(e, env, dimSizes)
	if err != nil {
		return nil, err
	}
	return p.Run(), nil
}
