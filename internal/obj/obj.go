// Package obj defines SLEF (Synthetic Library Executable Format), the
// object-file format shared by the assembler, the dynamic loader and the
// LFI profiler.
//
// A SLEF file is the reproduction's analogue of an ELF shared object or PE
// DLL: it carries a text section of SIA-32 instructions, an initialised
// data image (with a BSS tail), a TLS template size, a symbol table, an
// import-name table and relocations. Libraries may be stripped — local
// symbols removed — and the profiler must keep working on them, exactly as
// the paper requires ("LFI does not require symbols and works on both
// stripped and unstripped libraries", §2).
package obj

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"lfi/internal/isa"
)

// FileKind distinguishes shared libraries from executables.
type FileKind uint8

// File kinds.
const (
	Library FileKind = iota + 1
	Executable
)

// String returns a human-readable name for the file kind.
func (k FileKind) String() string {
	switch k {
	case Library:
		return "library"
	case Executable:
		return "executable"
	}
	return "unknown"
}

// SymKind classifies a symbol by the section it lives in.
type SymKind uint8

// Symbol kinds.
const (
	SymFunc SymKind = iota + 1 // text section
	SymData                    // data section (or BSS tail)
	SymTLS                     // thread-local block
)

// String returns a human-readable name for the symbol kind.
func (k SymKind) String() string {
	switch k {
	case SymFunc:
		return "func"
	case SymData:
		return "data"
	case SymTLS:
		return "tls"
	}
	return "unknown"
}

// Symbol is one entry of a SLEF symbol table.
type Symbol struct {
	Name     string
	Kind     SymKind
	Off      int32 // offset within the symbol's section
	Size     int32 // bytes (functions: text bytes; data/tls: slot size)
	Exported bool
}

// RelocKind tells the loader how to patch an instruction's Imm field.
type RelocKind uint8

// Relocation kinds.
const (
	// RelocText patches Imm to textBase+Index (Index is a text offset).
	// In the unloaded file, Imm already holds Index so that static
	// analysis can follow local branches and calls without relocation.
	RelocText RelocKind = iota + 1
	// RelocData patches Imm to dataBase+Index.
	RelocData
	// RelocTLS patches Imm to tlsBase+Index.
	RelocTLS
	// RelocImport patches Imm to the virtual address of the import-table
	// entry named by Index, resolved across loaded modules in search
	// order (preloads first — the LD_PRELOAD analogue).
	RelocImport
)

// String returns a human-readable name for the relocation kind.
func (k RelocKind) String() string {
	switch k {
	case RelocText:
		return "text"
	case RelocData:
		return "data"
	case RelocTLS:
		return "tls"
	case RelocImport:
		return "import"
	}
	return "unknown"
}

// Reloc is one relocation record.
type Reloc struct {
	Off   int32 // byte offset in Text of the instruction to patch
	Kind  RelocKind
	Index int32 // text/data/tls offset, or import-table index
}

// File is a parsed (or under-construction) SLEF object.
type File struct {
	Name     string
	Kind     FileKind
	Text     []byte
	Data     []byte // initialised prefix of the data section
	DataSize int32  // full data size including zeroed BSS tail
	TLSSize  int32
	Symbols  []Symbol
	Imports  []string
	Relocs   []Reloc
	// Needed lists the shared libraries this object links against (the
	// DT_NEEDED analogue); the profiler walks it recursively like ldd.
	Needed   []string
	Stripped bool
}

// Errors returned by the decoder.
var (
	ErrBadMagic   = errors.New("obj: bad SLEF magic")
	ErrBadVersion = errors.New("obj: unsupported SLEF version")
	ErrTruncated  = errors.New("obj: truncated SLEF file")
)

var slefMagic = [4]byte{'S', 'L', 'E', 'F'}

const slefVersion = 1

// Lookup returns the symbol with the given name, if present.
func (f *File) Lookup(name string) (Symbol, bool) {
	for _, s := range f.Symbols {
		if s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// LookupExport returns the exported symbol with the given name.
func (f *File) LookupExport(name string) (Symbol, bool) {
	for _, s := range f.Symbols {
		if s.Exported && s.Name == name {
			return s, true
		}
	}
	return Symbol{}, false
}

// ExportedFuncs returns the exported function symbols sorted by text
// offset. This is the interface the profiler enumerates (§3: "the
// interface of a library consists of a set of functions exported to
// programs that use the library").
func (f *File) ExportedFuncs() []Symbol {
	var out []Symbol
	for _, s := range f.Symbols {
		if s.Exported && s.Kind == SymFunc {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// Funcs returns all function symbols (exported and local) sorted by text
// offset.
func (f *File) Funcs() []Symbol {
	var out []Symbol
	for _, s := range f.Symbols {
		if s.Kind == SymFunc {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Off < out[j].Off })
	return out
}

// Strip returns a copy of the file with all non-exported symbols removed,
// simulating a stripped production library. Relocations and imports are
// retained (they are required for dynamic linking, as in ELF .dynsym).
func (f *File) Strip() *File {
	g := f.Clone()
	kept := g.Symbols[:0]
	for _, s := range g.Symbols {
		if s.Exported {
			kept = append(kept, s)
		}
	}
	g.Symbols = kept
	g.Stripped = true
	return g
}

// Clone returns a deep copy of the file.
func (f *File) Clone() *File {
	g := &File{
		Name:     f.Name,
		Kind:     f.Kind,
		Text:     append([]byte(nil), f.Text...),
		Data:     append([]byte(nil), f.Data...),
		DataSize: f.DataSize,
		TLSSize:  f.TLSSize,
		Symbols:  append([]Symbol(nil), f.Symbols...),
		Imports:  append([]string(nil), f.Imports...),
		Relocs:   append([]Reloc(nil), f.Relocs...),
		Needed:   append([]string(nil), f.Needed...),
		Stripped: f.Stripped,
	}
	return g
}

// Validate performs structural sanity checks: section bounds, symbol and
// relocation ranges, and instruction stream alignment.
func (f *File) Validate() error {
	if f.Name == "" {
		return errors.New("obj: file has no name")
	}
	if f.Kind != Library && f.Kind != Executable {
		return fmt.Errorf("obj: %s: bad file kind %d", f.Name, f.Kind)
	}
	if len(f.Text)%isa.Size != 0 {
		return fmt.Errorf("obj: %s: text size %d not a multiple of %d", f.Name, len(f.Text), isa.Size)
	}
	if int32(len(f.Data)) > f.DataSize {
		return fmt.Errorf("obj: %s: initialised data %d exceeds data size %d", f.Name, len(f.Data), f.DataSize)
	}
	for _, s := range f.Symbols {
		switch s.Kind {
		case SymFunc:
			if s.Off < 0 || s.Off+s.Size > int32(len(f.Text)) {
				return fmt.Errorf("obj: %s: symbol %q out of text bounds", f.Name, s.Name)
			}
		case SymData:
			if s.Off < 0 || s.Off+s.Size > f.DataSize {
				return fmt.Errorf("obj: %s: symbol %q out of data bounds", f.Name, s.Name)
			}
		case SymTLS:
			if s.Off < 0 || s.Off+s.Size > f.TLSSize {
				return fmt.Errorf("obj: %s: symbol %q out of tls bounds", f.Name, s.Name)
			}
		default:
			return fmt.Errorf("obj: %s: symbol %q has bad kind %d", f.Name, s.Name, s.Kind)
		}
	}
	for _, r := range f.Relocs {
		if r.Off < 0 || r.Off+isa.Size > int32(len(f.Text)) || r.Off%isa.Size != 0 {
			return fmt.Errorf("obj: %s: reloc at %#x out of bounds", f.Name, r.Off)
		}
		switch r.Kind {
		case RelocText:
			if r.Index < 0 || r.Index > int32(len(f.Text)) {
				return fmt.Errorf("obj: %s: text reloc target %#x out of bounds", f.Name, r.Index)
			}
		case RelocData:
			if r.Index < 0 || r.Index > f.DataSize {
				return fmt.Errorf("obj: %s: data reloc target %#x out of bounds", f.Name, r.Index)
			}
		case RelocTLS:
			if r.Index < 0 || r.Index > f.TLSSize {
				return fmt.Errorf("obj: %s: tls reloc target %#x out of bounds", f.Name, r.Index)
			}
		case RelocImport:
			if int(r.Index) < 0 || int(r.Index) >= len(f.Imports) {
				return fmt.Errorf("obj: %s: import reloc index %d out of range", f.Name, r.Index)
			}
		default:
			return fmt.Errorf("obj: %s: reloc at %#x has bad kind %d", f.Name, r.Off, r.Kind)
		}
	}
	return nil
}

// Encode serialises the file into the SLEF binary format. The encoding is
// deterministic: identical files produce identical bytes.
func (f *File) Encode() []byte {
	var buf bytes.Buffer
	buf.Write(slefMagic[:])
	writeU32(&buf, slefVersion)
	writeStr(&buf, f.Name)
	buf.WriteByte(byte(f.Kind))
	flags := byte(0)
	if f.Stripped {
		flags |= 1
	}
	buf.WriteByte(flags)

	writeU32(&buf, uint32(len(f.Text)))
	buf.Write(f.Text)
	writeU32(&buf, uint32(len(f.Data)))
	buf.Write(f.Data)
	writeU32(&buf, uint32(f.DataSize))
	writeU32(&buf, uint32(f.TLSSize))

	writeU32(&buf, uint32(len(f.Symbols)))
	for _, s := range f.Symbols {
		writeStr(&buf, s.Name)
		buf.WriteByte(byte(s.Kind))
		exp := byte(0)
		if s.Exported {
			exp = 1
		}
		buf.WriteByte(exp)
		writeU32(&buf, uint32(s.Off))
		writeU32(&buf, uint32(s.Size))
	}

	writeU32(&buf, uint32(len(f.Imports)))
	for _, im := range f.Imports {
		writeStr(&buf, im)
	}

	writeU32(&buf, uint32(len(f.Needed)))
	for _, n := range f.Needed {
		writeStr(&buf, n)
	}

	writeU32(&buf, uint32(len(f.Relocs)))
	for _, r := range f.Relocs {
		writeU32(&buf, uint32(r.Off))
		buf.WriteByte(byte(r.Kind))
		writeU32(&buf, uint32(r.Index))
	}
	return buf.Bytes()
}

// Decode parses a SLEF binary image.
func Decode(b []byte) (*File, error) {
	r := &reader{b: b}
	var magic [4]byte
	if err := r.bytes(magic[:]); err != nil {
		return nil, err
	}
	if magic != slefMagic {
		return nil, ErrBadMagic
	}
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ver != slefVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, ver)
	}
	f := &File{}
	if f.Name, err = r.str(); err != nil {
		return nil, err
	}
	kind, err := r.u8()
	if err != nil {
		return nil, err
	}
	f.Kind = FileKind(kind)
	flags, err := r.u8()
	if err != nil {
		return nil, err
	}
	f.Stripped = flags&1 != 0

	if f.Text, err = r.blob(); err != nil {
		return nil, err
	}
	if f.Data, err = r.blob(); err != nil {
		return nil, err
	}
	ds, err := r.u32()
	if err != nil {
		return nil, err
	}
	f.DataSize = int32(ds)
	ts, err := r.u32()
	if err != nil {
		return nil, err
	}
	f.TLSSize = int32(ts)

	nsym, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nsym > uint32(len(b)) {
		return nil, ErrTruncated
	}
	f.Symbols = make([]Symbol, 0, nsym)
	for i := uint32(0); i < nsym; i++ {
		var s Symbol
		if s.Name, err = r.str(); err != nil {
			return nil, err
		}
		k, err := r.u8()
		if err != nil {
			return nil, err
		}
		s.Kind = SymKind(k)
		exp, err := r.u8()
		if err != nil {
			return nil, err
		}
		s.Exported = exp != 0
		off, err := r.u32()
		if err != nil {
			return nil, err
		}
		s.Off = int32(off)
		sz, err := r.u32()
		if err != nil {
			return nil, err
		}
		s.Size = int32(sz)
		f.Symbols = append(f.Symbols, s)
	}

	nimp, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nimp > uint32(len(b)) {
		return nil, ErrTruncated
	}
	f.Imports = make([]string, 0, nimp)
	for i := uint32(0); i < nimp; i++ {
		im, err := r.str()
		if err != nil {
			return nil, err
		}
		f.Imports = append(f.Imports, im)
	}

	nneed, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nneed > uint32(len(b)) {
		return nil, ErrTruncated
	}
	f.Needed = make([]string, 0, nneed)
	for i := uint32(0); i < nneed; i++ {
		n, err := r.str()
		if err != nil {
			return nil, err
		}
		f.Needed = append(f.Needed, n)
	}

	nrel, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nrel > uint32(len(b)) {
		return nil, ErrTruncated
	}
	f.Relocs = make([]Reloc, 0, nrel)
	for i := uint32(0); i < nrel; i++ {
		var rel Reloc
		off, err := r.u32()
		if err != nil {
			return nil, err
		}
		rel.Off = int32(off)
		k, err := r.u8()
		if err != nil {
			return nil, err
		}
		rel.Kind = RelocKind(k)
		idx, err := r.u32()
		if err != nil {
			return nil, err
		}
		rel.Index = int32(idx)
		f.Relocs = append(f.Relocs, rel)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

type reader struct {
	b   []byte
	off int
}

func (r *reader) bytes(dst []byte) error {
	if r.off+len(dst) > len(r.b) {
		return ErrTruncated
	}
	copy(dst, r.b[r.off:])
	r.off += len(dst)
	return nil
}

func (r *reader) u8() (byte, error) {
	if r.off >= len(r.b) {
		return 0, ErrTruncated
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if r.off+int(n) > len(r.b) {
		return "", ErrTruncated
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *reader) blob() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if r.off+int(n) > len(r.b) {
		return nil, ErrTruncated
	}
	b := append([]byte(nil), r.b[r.off:r.off+int(n)]...)
	r.off += int(n)
	return b, nil
}

func writeU32(buf *bytes.Buffer, v uint32) {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	buf.Write(tmp[:])
}

func writeStr(buf *bytes.Buffer, s string) {
	writeU32(buf, uint32(len(s)))
	buf.WriteString(s)
}
