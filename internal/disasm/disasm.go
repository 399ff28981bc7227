// Package disasm disassembles SLEF text sections into annotated SIA-32
// instruction listings.
//
// It corresponds to the "platform-specific tools such as objdump" step of
// the LFI profiler pipeline (§3.1): obtain the exported symbols of a
// shared object, disassemble it, and hand a faithful instruction stream to
// the CFG builder. Because SIA-32 instructions are fixed width, the linear
// sweep is total; the paper treats the disassembler as a loosely coupled,
// replaceable component.
package disasm

import (
	"fmt"
	"strings"

	"lfi/internal/isa"
	"lfi/internal/obj"
)

// Program is a disassembled SLEF file: one instruction per text slot plus
// relocation annotations used to recover symbolic call and data targets.
type Program struct {
	File  *obj.File
	Insts []isa.Inst
	// relocByIdx maps instruction index -> relocation applying to it.
	relocByIdx map[int]obj.Reloc
}

// Disassemble decodes the full text section of f.
func Disassemble(f *obj.File) (*Program, error) {
	insts, err := isa.DecodeAll(f.Text)
	if err != nil {
		return nil, fmt.Errorf("disasm %s: %w", f.Name, err)
	}
	p := &Program{
		File:       f,
		Insts:      insts,
		relocByIdx: make(map[int]obj.Reloc, len(f.Relocs)),
	}
	for _, r := range f.Relocs {
		p.relocByIdx[int(r.Off)/isa.Size] = r
	}
	return p, nil
}

// InstAt returns the instruction starting at the given text offset.
func (p *Program) InstAt(off int32) (isa.Inst, bool) {
	idx := int(off) / isa.Size
	if off%isa.Size != 0 || idx < 0 || idx >= len(p.Insts) {
		return isa.Inst{}, false
	}
	return p.Insts[idx], true
}

// RelocAt returns the relocation, if any, for the instruction at the given
// text offset.
func (p *Program) RelocAt(off int32) (obj.Reloc, bool) {
	r, ok := p.relocByIdx[int(off)/isa.Size]
	return r, ok
}

// CallTarget resolves the target of a direct OpCall at text offset off.
// It returns either a local text offset (ok, imported=false) or an import
// name (imported=true). Indirect calls return ok=false.
func (p *Program) CallTarget(off int32) (local int32, importName string, imported, ok bool) {
	in, found := p.InstAt(off)
	if !found || in.Op != isa.OpCall {
		return 0, "", false, false
	}
	if r, hasRel := p.RelocAt(off); hasRel {
		switch r.Kind {
		case obj.RelocText:
			return r.Index, "", false, true
		case obj.RelocImport:
			if int(r.Index) < len(p.File.Imports) {
				return 0, p.File.Imports[r.Index], true, true
			}
		}
		return 0, "", false, false
	}
	// No relocation: Imm is a raw local text offset.
	return in.Imm, "", false, true
}

// SymbolFor returns the name of the function symbol that starts at the
// given text offset, if one exists (stripped libraries only retain
// exported names).
func (p *Program) SymbolFor(off int32) (string, bool) {
	for _, s := range p.File.Symbols {
		if s.Kind == obj.SymFunc && s.Off == off {
			return s.Name, true
		}
	}
	return "", false
}

// Render produces an objdump-style listing of the instruction range
// [start, end) with symbolic annotations, in the spirit of the paper's
// Figure 2.
func (p *Program) Render(start, end int32) string {
	var b strings.Builder
	for off := start; off < end && int(off)/isa.Size < len(p.Insts); off += isa.Size {
		in := p.Insts[int(off)/isa.Size]
		if name, ok := p.SymbolFor(off); ok {
			fmt.Fprintf(&b, "%08x <%s>:\n", off, name)
		}
		fmt.Fprintf(&b, "%8x:  %s", off, in.String())
		if r, ok := p.RelocAt(off); ok && r.Kind == obj.RelocImport {
			if int(r.Index) < len(p.File.Imports) {
				fmt.Fprintf(&b, "    ; -> %s", p.File.Imports[r.Index])
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
