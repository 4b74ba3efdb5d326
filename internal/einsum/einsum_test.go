package einsum

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/fusedmindlab/transfusion/internal/faults"
)

func env(pairs ...interface{}) map[string]int {
	m := make(map[string]int)
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(string)] = pairs[i+1].(int)
	}
	return m
}

func TestNewMatmulStructure(t *testing.T) {
	e := New("C", []string{"m", "n"}, In("A", "m", "k"), In("B", "k", "n"))
	if got := e.ReductionIndices(); len(got) != 1 || got[0] != "k" {
		t.Fatalf("reduction indices = %v, want [k]", got)
	}
	if e.Reduce != ReduceSum {
		t.Fatalf("Reduce = %v, want sum", e.Reduce)
	}
	if e.Class() != ClassContraction {
		t.Fatalf("Class = %v, want contraction", e.Class())
	}
}

func TestNewElementwiseHasNoReduce(t *testing.T) {
	e := New("Y", []string{"p"}, In("X", "p"))
	if e.Reduce != ReduceNone {
		t.Fatalf("Reduce = %v, want none", e.Reduce)
	}
	if e.Class() != ClassVector {
		t.Fatalf("Class = %v, want vector", e.Class())
	}
}

func TestComputeLoadMatchesEq40(t *testing.T) {
	// Matmul m x k x n: load = m*n (output) * k (reduction).
	e := New("C", []string{"m", "n"}, In("A", "m", "k"), In("B", "k", "n"))
	en := env("m", 4, "n", 5, "k", 7)
	if got := e.ComputeLoad(en); got != 4*5*7 {
		t.Fatalf("ComputeLoad = %d, want %d", got, 4*5*7)
	}
	if got := e.OutputSize(en); got != 20 {
		t.Fatalf("OutputSize = %d, want 20", got)
	}
}

func TestComputeLoadElementwise(t *testing.T) {
	e := Map("Y", []string{"h", "p"}, Add2, In("A", "h", "p"), In("B", "h", "p"))
	if got := e.ComputeLoad(env("h", 3, "p", 11)); got != 33 {
		t.Fatalf("ComputeLoad = %d, want 33", got)
	}
}

func TestComputeLoadBroadcastInput(t *testing.T) {
	// DAV[h,f,p] = IAV[h,f,p] - MAV[p]: broadcast along h,f; no reduction.
	e := Map("DAV", []string{"h", "f", "p"}, Sub2, In("IAV", "h", "f", "p"), In("MAV", "p"))
	if got := len(e.ReductionIndices()); got != 0 {
		t.Fatalf("reduction indices = %d, want 0", got)
	}
	if got := e.ComputeLoad(env("h", 2, "f", 3, "p", 5)); got != 30 {
		t.Fatalf("ComputeLoad = %d, want 30", got)
	}
}

func TestReductionConstructor(t *testing.T) {
	e := Reduction("LM", []string{"h", "m1", "p"}, ReduceMax, In("BQK", "h", "m1", "m0", "p"))
	if got := e.ReductionIndices(); len(got) != 1 || got[0] != "m0" {
		t.Fatalf("reduction indices = %v, want [m0]", got)
	}
	if e.Class() != ClassVector {
		t.Fatalf("Class = %v, want vector", e.Class())
	}
	if got := e.ComputeLoad(env("h", 2, "m1", 3, "m0", 4, "p", 5)); got != 2*3*4*5 {
		t.Fatalf("ComputeLoad = %d", got)
	}
}

func TestValidate(t *testing.T) {
	good := New("C", []string{"m", "n"}, In("A", "m", "k"), In("B", "k", "n"))
	if err := good.Validate(env("m", 2, "n", 3, "k", 4)); err != nil {
		t.Fatalf("Validate(good) = %v", err)
	}
	// Missing size for k.
	if err := good.Validate(env("m", 2, "n", 3)); err == nil {
		t.Fatal("Validate with missing index size succeeded")
	}
	// Free output index.
	bad := New("C", []string{"m", "z"}, In("A", "m", "k"))
	if err := bad.Validate(env("m", 2, "k", 3, "z", 4)); err == nil {
		t.Fatal("Validate with free output index succeeded")
	}
	// ReduceNone with reduction indices.
	bad2 := Map("Y", []string{"m"}, Identity, In("A", "m", "k"))
	if err := bad2.Validate(env("m", 2, "k", 3)); err == nil {
		t.Fatal("Validate ReduceNone-with-reduction succeeded")
	}
	// Non-positive size.
	if err := good.Validate(env("m", 2, "n", 0, "k", 4)); err == nil {
		t.Fatal("Validate with zero-size index succeeded")
	}
}

func TestCombineValueDefaults(t *testing.T) {
	one := New("Y", []string{"p"}, In("X", "p"))
	if got := one.CombineValue([]float64{3}); got != 3 {
		t.Fatalf("identity combine = %v", got)
	}
	two := New("C", []string{"m"}, In("A", "m", "k"), In("B", "k"))
	if got := two.CombineValue([]float64{3, 4}); got != 12 {
		t.Fatalf("product combine = %v", got)
	}
	three := New("C", []string{"m"}, In("A", "m"), In("B", "m"), In("D", "m"))
	if got := three.CombineValue([]float64{2, 3, 4}); got != 24 {
		t.Fatalf("3-way product combine = %v", got)
	}
}

func TestInputTensorsDeduped(t *testing.T) {
	// QAV = DAV * DAV reads the same tensor twice.
	e := Map("QAV", []string{"p"}, Square, In("DAV", "p"), In("DAV", "p"))
	if got := e.InputTensors(); len(got) != 1 || got[0] != "DAV" {
		t.Fatalf("InputTensors = %v, want [DAV]", got)
	}
}

func TestString(t *testing.T) {
	e := New("BQK", []string{"h", "m1", "m0", "p"}, In("Q", "h", "e", "p"), In("BK", "h", "e", "m1", "m0"))
	s := e.String()
	for _, want := range []string{"BQK[h,m1,m0,p]", "Q[h,e,p]", "BK[h,e,m1,m0]", "sum(e)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	e, err := Parse("BQK = Q[h,e,p] * BK[h,e,m1,m0] -> [h,m1,m0,p]")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "BQK" || len(e.Inputs) != 2 {
		t.Fatalf("parsed %+v", e)
	}
	if got := e.ReductionIndices(); len(got) != 1 || got[0] != "e" {
		t.Fatalf("reduction = %v", got)
	}
	if e.Class() != ClassContraction {
		t.Fatalf("Class = %v", e.Class())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"no equals sign",
		"C = A[m,k] * B[k,n]", // no arrow
		"= A[m] -> [m]",       // empty name
		"C = Am,k] -> [m]",    // malformed operand
		"C = A[m,,k] -> [m]",  // empty index
		"C = [m,k] -> [m]",    // operand with no tensor name
		"C =  -> [m]",         // no operands
		"C = A[m] -> m",       // unbracketed output
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestParseErrorsAreTyped(t *testing.T) {
	for _, spec := range []string{
		"garbage",
		"C = A[i,i] * B[i] -> [i]", // repeated label within one operand
		"C = A[m] * B[m] -> [m,m]", // duplicate output index
		"C = A[m] * B[m] -> [m,q]", // free output index
		" [x] = A[x] -> [x]",       // empty output name
	} {
		_, err := Parse(spec)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
			continue
		}
		if !errors.Is(err, faults.ErrInvalidSpec) {
			t.Errorf("Parse(%q) error %v does not match faults.ErrInvalidSpec", spec, err)
		}
	}
}

func TestCombineHelpers(t *testing.T) {
	cases := []struct {
		name string
		f    CombineFunc
		in   []float64
		want float64
	}{
		{"Add2", Add2, []float64{2, 3}, 5},
		{"Sub2", Sub2, []float64{2, 3}, -1},
		{"Mul2", Mul2, []float64{2, 3}, 6},
		{"Div2", Div2, []float64{6, 3}, 2},
		{"Max2", Max2, []float64{2, 3}, 3},
		{"ExpSub", ExpSub, []float64{1, 1}, 1},
		{"Square", Square, []float64{3}, 9},
		{"Identity", Identity, []float64{7}, 7},
		{"Scale", Scale(0.5), []float64{8}, 4},
		{"MulAdd3", MulAdd3, []float64{2, 3, 4}, 10},
		{"ReLU neg", ReLU, []float64{-2}, 0},
		{"ReLU pos", ReLU, []float64{2}, 2},
	}
	for _, c := range cases {
		if got := c.f(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
	if got := RSqrt([]float64{4}); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("RSqrt(4) = %v, want 0.5", got)
	}
	// GeLU and SiLU sanity: f(0)=0, monotone-ish around 0, f(x)≈x for large x.
	for _, f := range []CombineFunc{GeLU, SiLU} {
		if got := f([]float64{0}); math.Abs(got) > 1e-12 {
			t.Errorf("activation(0) = %v, want 0", got)
		}
		if got := f([]float64{10}); math.Abs(got-10) > 1e-3 {
			t.Errorf("activation(10) = %v, want ~10", got)
		}
		if got := f([]float64{-10}); math.Abs(got) > 1e-3 {
			t.Errorf("activation(-10) = %v, want ~0", got)
		}
	}
	if ActivationByName("gelu")([]float64{1}) == ActivationByName("relu")([]float64{1}) {
		t.Error("gelu and relu indistinguishable at x=1")
	}
	if got := ActivationByName("unknown")([]float64{-3}); got != 0 {
		t.Errorf("unknown activation fallback = %v, want ReLU semantics (0)", got)
	}
}

// Property (Eq. 40): ComputeLoad is multiplicative in every dimension extent.
func TestQuickComputeLoadMultiplicative(t *testing.T) {
	f := func(m, n, k uint8) bool {
		mm, nn, kk := int(m%16)+1, int(n%16)+1, int(k%16)+1
		e := New("C", []string{"m", "n"}, In("A", "m", "k"), In("B", "k", "n"))
		base := e.ComputeLoad(env("m", mm, "n", nn, "k", kk))
		doubled := e.ComputeLoad(env("m", 2*mm, "n", nn, "k", kk))
		return doubled == 2*base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: reduction indices and output indices partition the inputs' index
// set (every input index is either an output index or a reduction index).
func TestQuickIndexPartition(t *testing.T) {
	e := New("C", []string{"m", "n"}, In("A", "m", "k"), In("B", "k", "n", "j"))
	out := make(map[string]bool)
	for _, i := range e.OutIdx {
		out[i] = true
	}
	red := make(map[string]bool)
	for _, i := range e.ReductionIndices() {
		red[i] = true
	}
	for _, i := range e.AllIndices() {
		if out[i] == red[i] {
			t.Fatalf("index %q: out=%v red=%v — not a partition", i, out[i], red[i])
		}
	}
}
