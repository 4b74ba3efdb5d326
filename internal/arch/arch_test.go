package arch

import (
	"os"
	"strings"
	"testing"
)

func TestTable3Presets(t *testing.T) {
	cloud := Cloud()
	if cloud.PE2D.Rows != 256 || cloud.PE2D.Cols != 256 {
		t.Fatalf("cloud 2D PE = %dx%d, want 256x256", cloud.PE2D.Rows, cloud.PE2D.Cols)
	}
	if cloud.PE1DLanes != 256 {
		t.Fatalf("cloud 1D PE = %d, want 256", cloud.PE1DLanes)
	}
	if cloud.BufferBytes != 16<<20 {
		t.Fatalf("cloud buffer = %d, want 16 MiB", cloud.BufferBytes)
	}
	if cloud.DRAMBandwidth != 400e9 {
		t.Fatalf("cloud bandwidth = %v, want 400 GB/s", cloud.DRAMBandwidth)
	}

	edge := Edge()
	if edge.PE2D.NumPEs() != 256 {
		t.Fatalf("edge 2D PEs = %d, want 256", edge.PE2D.NumPEs())
	}
	if edge.BufferBytes != 5<<20 {
		t.Fatalf("edge buffer = %d, want 5 MiB", edge.BufferBytes)
	}
	if edge.DRAMBandwidth != 30e9 {
		t.Fatalf("edge bandwidth = %v, want 30 GB/s", edge.DRAMBandwidth)
	}
}

func TestEdgeVariants(t *testing.T) {
	e32 := Edge32()
	if e32.PE2D.NumPEs() != 1024 || e32.BufferBytes != 5<<20 {
		t.Fatalf("edge32 = %d PEs, %d buffer", e32.PE2D.NumPEs(), e32.BufferBytes)
	}
	e64 := Edge64()
	if e64.PE2D.NumPEs() != 4096 {
		t.Fatalf("edge64 PEs = %d, want 4096", e64.PE2D.NumPEs())
	}
	// §6.2: the 64x64 configuration's buffer grows to 8 MB.
	if e64.BufferBytes != 8<<20 {
		t.Fatalf("edge64 buffer = %d, want 8 MiB", e64.BufferBytes)
	}
}

func TestAllPresetsValidate(t *testing.T) {
	for name, s := range Presets() {
		if err := s.Validate(); err != nil {
			t.Errorf("preset %s invalid: %v", name, err)
		}
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	base := Cloud()
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"zero 2D rows", func(s *Spec) { s.PE2D.Rows = 0 }},
		{"negative 2D cols", func(s *Spec) { s.PE2D.Cols = -1 }},
		{"zero 1D lanes", func(s *Spec) { s.PE1DLanes = 0 }},
		{"zero buffer", func(s *Spec) { s.BufferBytes = 0 }},
		{"zero bandwidth", func(s *Spec) { s.DRAMBandwidth = 0 }},
		{"zero clock", func(s *Spec) { s.ClockHz = 0 }},
		{"zero element width", func(s *Spec) { s.BytesPerElement = 0 }},
	}
	for _, c := range cases {
		s := base
		c.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded", c.name)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("edge")
	if err != nil || s.Name != "edge" {
		t.Fatalf("ByName(edge) = %v, %v", s.Name, err)
	}
	if _, err := ByName("gpu"); err == nil {
		t.Fatal("ByName(gpu) succeeded")
	}
}

// The unknown-preset error lists the valid names in sorted order, so the
// same bad request always produces the same error text.
func TestByNameErrorListsPresetsSorted(t *testing.T) {
	const want = `arch: unknown preset "gpu" (have [cloud edge edge32 edge64])`
	for i := 0; i < 20; i++ {
		_, err := ByName("gpu")
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("ByName(gpu) error = %v, want prefix %q", err, want)
		}
	}
}

func TestBufferElements(t *testing.T) {
	s := Cloud()
	if got := s.BufferElements(); got != (16<<20)/2 {
		t.Fatalf("BufferElements = %d", got)
	}
}

func TestEnergyOrdering(t *testing.T) {
	// The evaluation depends on DRAM ≫ buffer ≫ register file; assert the
	// ordering so a future constant tweak cannot silently invert it.
	e := Default45nm
	if !(e.DRAMPerByte > 5*e.BufferPerByte && e.BufferPerByte > 5*e.RegPerByte) {
		t.Fatalf("energy ordering violated: %+v", e)
	}
	if e.MACOp <= 0 || e.VectorOp <= 0 {
		t.Fatalf("non-positive op energies: %+v", e)
	}
}

func TestFromJSON(t *testing.T) {
	data := []byte(`{
		"name": "myNPU",
		"pe2dRows": 64, "pe2dCols": 64,
		"pe1dLanes": 512,
		"bufferBytes": 8388608,
		"dramBandwidthGBs": 100,
		"clockGHz": 1.5,
		"energy": {"dramPerByte": 200}
	}`)
	s, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "myNPU" || s.PE2D.NumPEs() != 4096 || s.PE1DLanes != 512 {
		t.Fatalf("parsed %+v", s)
	}
	if s.DRAMBandwidth != 100e9 || s.ClockHz != 1.5e9 {
		t.Fatalf("units wrong: BW=%v clock=%v", s.DRAMBandwidth, s.ClockHz)
	}
	// Defaults: element width and remaining energy entries.
	if s.BytesPerElement != 2 {
		t.Fatalf("default element width = %d", s.BytesPerElement)
	}
	if s.Energy.DRAMPerByte != 200 || s.Energy.MACOp != Default45nm.MACOp {
		t.Fatalf("energy merge wrong: %+v", s.Energy)
	}
}

func TestFromJSONErrors(t *testing.T) {
	if _, err := FromJSON([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Valid JSON but invalid spec (no PEs).
	if _, err := FromJSON([]byte(`{"name":"x"}`)); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestFromJSONFile(t *testing.T) {
	path := t.TempDir() + "/arch.json"
	content := `{"name":"f","pe2dRows":16,"pe2dCols":16,"pe1dLanes":256,"bufferBytes":1048576,"dramBandwidthGBs":30,"clockGHz":0.8}`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := FromJSONFile(path)
	if err != nil || s.Name != "f" {
		t.Fatalf("FromJSONFile = %+v, %v", s, err)
	}
	if _, err := FromJSONFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}
