package obj

import (
	"reflect"
	"testing"
	"testing/quick"

	"lfi/internal/isa"
)

func sampleFile() *File {
	text := make([]byte, 0, 4*isa.Size)
	for _, in := range []isa.Inst{
		{Op: isa.OpMovRI, A: isa.R0, Imm: -1},
		{Op: isa.OpLea, A: isa.R1, Imm: 0},
		{Op: isa.OpCall, Imm: 0},
		{Op: isa.OpRet},
	} {
		var b [isa.Size]byte
		in.Encode(b[:])
		text = append(text, b[:]...)
	}
	return &File{
		Name:     "libx.so",
		Kind:     Library,
		Text:     text,
		Data:     []byte{1, 2, 3, 4},
		DataSize: 8,
		TLSSize:  4,
		Symbols: []Symbol{
			{Name: "f", Kind: SymFunc, Off: 0, Size: int32(len(text)), Exported: true},
			{Name: "g", Kind: SymData, Off: 0, Size: 4},
			{Name: "errno", Kind: SymTLS, Off: 0, Size: 4, Exported: true},
		},
		Imports: []string{"write"},
		Needed:  []string{"libc.so"},
		Relocs: []Reloc{
			{Off: isa.Size, Kind: RelocData, Index: 0},
			{Off: 2 * isa.Size, Kind: RelocImport, Index: 0},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleFile().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := map[string]func(*File){
		"no name":          func(f *File) { f.Name = "" },
		"bad kind":         func(f *File) { f.Kind = 99 },
		"misaligned text":  func(f *File) { f.Text = f.Text[:len(f.Text)-1] },
		"data overflow":    func(f *File) { f.DataSize = 2 },
		"sym out of text":  func(f *File) { f.Symbols[0].Size = 1 << 20 },
		"sym bad kind":     func(f *File) { f.Symbols[0].Kind = 0 },
		"reloc bad offset": func(f *File) { f.Relocs[0].Off = 3 },
		"reloc bad import": func(f *File) { f.Relocs[1].Index = 5 },
		"reloc bad kind":   func(f *File) { f.Relocs[0].Kind = 77 },
	}
	for name, corrupt := range cases {
		f := sampleFile()
		corrupt(f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: validation should fail", name)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFile()
	g, err := Decode(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != f.Name || g.Kind != f.Kind || g.DataSize != f.DataSize ||
		g.TLSSize != f.TLSSize || len(g.Symbols) != len(f.Symbols) ||
		len(g.Imports) != len(f.Imports) || len(g.Needed) != len(f.Needed) ||
		len(g.Relocs) != len(f.Relocs) {
		t.Fatalf("round trip mismatch:\n%+v\nvs\n%+v", g, f)
	}
	for i := range f.Symbols {
		if g.Symbols[i] != f.Symbols[i] {
			t.Errorf("symbol %d: %+v != %+v", i, g.Symbols[i], f.Symbols[i])
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not slef at all")); err == nil {
		t.Error("garbage should not decode")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty input should not decode")
	}
	// Truncations at every prefix length must error, not panic.
	blob := sampleFile().Encode()
	for i := 0; i < len(blob)-1; i += 7 {
		if _, err := Decode(blob[:i]); err == nil {
			t.Errorf("truncated at %d should fail", i)
		}
	}
}

func TestDecodeQuickNoPanic(t *testing.T) {
	// Property: arbitrary byte mutations never panic the decoder.
	blob := sampleFile().Encode()
	f := func(pos uint16, val byte) bool {
		mut := append([]byte(nil), blob...)
		mut[int(pos)%len(mut)] ^= val
		_, _ = Decode(mut)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLookupAndExports(t *testing.T) {
	f := sampleFile()
	if _, ok := f.LookupExport("g"); ok {
		t.Error("g is not exported")
	}
	if _, ok := f.Lookup("g"); !ok {
		t.Error("g should be found by Lookup")
	}
	ex := f.ExportedFuncs()
	if len(ex) != 1 || ex[0].Name != "f" {
		t.Errorf("exported funcs = %+v", ex)
	}
}

func TestStripKeepsDynamicInfo(t *testing.T) {
	f := sampleFile()
	s := f.Strip()
	if len(s.Imports) != len(f.Imports) || len(s.Relocs) != len(f.Relocs) {
		t.Error("strip must keep imports and relocs (dynamic linking needs them)")
	}
	if _, ok := s.Lookup("g"); ok {
		t.Error("local data symbol survived strip")
	}
	if _, ok := s.Lookup("errno"); !ok {
		t.Error("exported TLS symbol must survive strip")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := sampleFile()
	g := f.Clone()
	g.Text[0] = 0xFF
	g.Symbols[0].Name = "mutated"
	g.Imports[0] = "mutated"
	if f.Text[0] == 0xFF || f.Symbols[0].Name == "mutated" || f.Imports[0] == "mutated" {
		t.Error("Clone shares state with the original")
	}
}

// TestRelocAt: each relocation record names the instruction it patches
// by its text offset, and keeps that offset through an encode/decode
// round trip.
func TestRelocAt(t *testing.T) {
	f := sampleFile()
	g, err := Decode(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	want := []Reloc{
		{Off: isa.Size, Kind: RelocData, Index: 0},
		{Off: 2 * isa.Size, Kind: RelocImport, Index: 0},
	}
	if !reflect.DeepEqual(g.Relocs, want) {
		t.Errorf("relocs = %+v, want %+v", g.Relocs, want)
	}
}
