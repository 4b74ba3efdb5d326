// Package arch describes the spatial-accelerator architectures TransFusion
// targets: an off-chip DRAM, a shared on-chip global buffer, a 2D PE array
// for matrix-dense work and a 1D PE array for streaming/vector work
// (Figure 1 of the paper). The presets reproduce Table 3 plus the 32×32 and
// 64×64 edge variants used in the PE-scaling study (§6.2).
//
// Energy is modelled with per-access costs at a 45 nm-class technology node,
// replacing the paper's use of Accelergy: what the evaluation consumes is
// only the relative per-component cost ordering (DRAM ≫ global buffer ≫
// register file ≈ PE op), which these constants preserve.
package arch

import (
	"sort"

	"github.com/fusedmindlab/transfusion/internal/faults"
)

// Array2D is the 2D processing-element array.
type Array2D struct {
	Rows int
	Cols int
}

// NumPEs returns the total PE count of the 2D array.
func (a Array2D) NumPEs() int { return a.Rows * a.Cols }

// EnergyTable holds per-access energies in picojoules.
type EnergyTable struct {
	// DRAMPerByte is the energy of moving one byte to/from off-chip memory.
	DRAMPerByte float64
	// BufferPerByte is the energy of one global-buffer byte access.
	BufferPerByte float64
	// RegPerByte is the energy of one register-file byte access.
	RegPerByte float64
	// MACOp is the energy of one multiply-accumulate on the 2D array.
	MACOp float64
	// VectorOp is the energy of one scalar operation on the 1D array.
	VectorOp float64
}

// Default45nm is the energy table used by every preset; the values follow
// the usual 45 nm scaling literature (a 4-byte DRAM access costs two to
// three orders of magnitude more than a MAC).
var Default45nm = EnergyTable{
	DRAMPerByte:   160,  // ~640 pJ per 32-bit word
	BufferPerByte: 12.5, // large on-chip SRAM
	RegPerByte:    0.25,
	MACOp:         4.6, // fp mult + add
	VectorOp:      1.1, // exp/div approximated as iterative vector ops
}

// Spec is a complete architecture description.
type Spec struct {
	// Name identifies the preset ("cloud", "edge", ...).
	Name string
	// PE2D is the matrix array (e.g. 256×256 on cloud).
	PE2D Array2D
	// PE1DLanes is the element count of the 1D streaming array.
	PE1DLanes int
	// BufferBytes is the shared on-chip global buffer capacity.
	BufferBytes int64
	// DRAMBandwidth is the off-chip bandwidth in bytes per second.
	DRAMBandwidth float64
	// ClockHz is the PE clock frequency.
	ClockHz float64
	// BytesPerElement is the modelled datatype width (2 = bf16).
	BytesPerElement int
	// Energy is the per-access energy table.
	Energy EnergyTable
}

// Validate checks that every parameter is physically meaningful. Violations
// return errors matching faults.ErrInvalidSpec.
func (s Spec) Validate() error {
	switch {
	case s.Name == "":
		return faults.Invalidf("arch: empty name")
	case s.PE2D.Rows <= 0 || s.PE2D.Cols <= 0:
		return faults.Invalidf("arch %s: non-positive 2D PE array %dx%d", s.Name, s.PE2D.Rows, s.PE2D.Cols)
	case s.PE1DLanes <= 0:
		return faults.Invalidf("arch %s: non-positive 1D PE lanes %d", s.Name, s.PE1DLanes)
	case s.BufferBytes <= 0:
		return faults.Invalidf("arch %s: non-positive buffer size %d", s.Name, s.BufferBytes)
	case s.DRAMBandwidth <= 0:
		return faults.Invalidf("arch %s: non-positive DRAM bandwidth %f", s.Name, s.DRAMBandwidth)
	case s.ClockHz <= 0:
		return faults.Invalidf("arch %s: non-positive clock %f", s.Name, s.ClockHz)
	case s.BytesPerElement <= 0:
		return faults.Invalidf("arch %s: non-positive element width %d", s.Name, s.BytesPerElement)
	default:
		return nil
	}
}

// BufferElements returns the buffer capacity in elements of the modelled
// datatype.
func (s Spec) BufferElements() int64 {
	return s.BufferBytes / int64(s.BytesPerElement)
}

const (
	kib = int64(1) << 10
	mib = int64(1) << 20
	gb  = 1e9
)

// Cloud is the TPU v2/v3-class cloud architecture of Table 3: a 256×256 2D
// array, 256-lane 1D array, 16 MB buffer, 400 GB/s DRAM.
func Cloud() Spec {
	return Spec{
		Name:            "cloud",
		PE2D:            Array2D{Rows: 256, Cols: 256},
		PE1DLanes:       256,
		BufferBytes:     16 * mib,
		DRAMBandwidth:   400 * gb,
		ClockHz:         940e6,
		BytesPerElement: 2,
		Energy:          Default45nm,
	}
}

// Edge is the edge-NPU architecture of Table 3: 16×16 2D array, 256-lane 1D
// array, 5 MB buffer, 30 GB/s DRAM.
func Edge() Spec {
	return Spec{
		Name:            "edge",
		PE2D:            Array2D{Rows: 16, Cols: 16},
		PE1DLanes:       256,
		BufferBytes:     5 * mib,
		DRAMBandwidth:   30 * gb,
		ClockHz:         800e6,
		BytesPerElement: 2,
		Energy:          Default45nm,
	}
}

// Edge32 is the 32×32 PE-scaling variant of §6.2 (same 5 MB buffer).
func Edge32() Spec {
	s := Edge()
	s.Name = "edge32"
	s.PE2D = Array2D{Rows: 32, Cols: 32}
	return s
}

// Edge64 is the 64×64 PE-scaling variant of §6.2; the paper notes the
// on-chip buffer grows to 8 MB in this configuration.
func Edge64() Spec {
	s := Edge()
	s.Name = "edge64"
	s.PE2D = Array2D{Rows: 64, Cols: 64}
	s.BufferBytes = 8 * mib
	return s
}

// Presets returns all architecture presets keyed by name.
func Presets() map[string]Spec {
	out := map[string]Spec{}
	for _, s := range []Spec{Cloud(), Edge(), Edge32(), Edge64()} {
		out[s.Name] = s
	}
	return out
}

// ByName resolves a preset; it returns an error listing the valid names when
// the preset does not exist.
func ByName(name string) (Spec, error) {
	p := Presets()
	if s, ok := p[name]; ok {
		return s, nil
	}
	names := make([]string, 0, len(p))
	for n := range p {
		names = append(names, n)
	}
	sort.Strings(names) // map order would make the error text vary run to run
	return Spec{}, faults.Invalidf("arch: unknown preset %q (have %v)", name, names)
}
