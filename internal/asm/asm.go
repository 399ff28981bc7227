// Package asm implements a two-pass assembler from SIA-32 assembly text to
// SLEF object files.
//
// Source syntax (one statement per line; ';' starts a comment):
//
//	.lib libc.so              declare a library object (or .exe name)
//	.extern write             declare an imported symbol
//	.global open              mark a symbol exported
//	.data buf 64              reserve 64 zeroed data bytes named buf
//	.dataw tab 1 2 3          initialised data words
//	.datab msg "GET /\n"      initialised data bytes (Go-style escapes)
//	.tls errno 4              reserve a TLS slot
//	.func open                start function 'open'
//	  push bp
//	  mov bp, sp
//	  ...
//	.endfunc                  end of function (optional before next .func)
//
// Instruction operands follow the forms rendered by isa.Inst.String, with
// symbolic targets allowed wherever a text offset or address is expected:
// 'call read', 'jmp .retry', 'lea r0, buf', 'dlnext r1, open'.
package asm

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"lfi/internal/isa"
	"lfi/internal/obj"
)

// Error describes an assembly failure with source position.
type Error struct {
	File string
	Line int
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Assemble assembles the given source into a SLEF object. The srcName is
// used only for error messages.
func Assemble(srcName, source string) (*obj.File, error) {
	a := &assembler{
		srcName: srcName,
		exports: make(map[string]bool),
		labels:  make(map[string]int32),
		imports: make(map[string]int),
	}
	if err := a.run(source); err != nil {
		return nil, err
	}
	return a.file, nil
}

type pendingRef struct {
	line    int
	instOff int32  // text offset of the instruction
	sym     string // symbolic target
	kind    refKind
}

type refKind uint8

const (
	refBranch refKind = iota + 1 // jmp/jcc/call target
	refLea                       // lea address operand
	refDlNext                    // dlnext import-name operand
)

type assembler struct {
	srcName string
	file    *obj.File
	line    int

	text    []byte
	data    []byte
	dataSz  int32
	tlsSz   int32
	symbols []obj.Symbol
	exports map[string]bool
	labels  map[string]int32 // function labels and data/tls symbols resolved in pass 1
	imports map[string]int
	importL []string
	refs    []pendingRef
	relocs  []obj.Reloc

	curFunc    string
	curFuncOff int32
	// funcs lists the functions in declaration order, which is text
	// order: their start offsets never decrease.
	funcs []funcStart
}

type funcStart struct {
	name string
	off  int32
}

func (a *assembler) errf(format string, args ...interface{}) error {
	return &Error{File: a.srcName, Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) run(source string) error {
	a.file = &obj.File{Kind: obj.Library}
	lines := strings.Split(source, "\n")

	// Pass 1: assign offsets to every label, symbol and instruction so
	// that forward references resolve in pass 2.
	if err := a.pass(lines, 1); err != nil {
		return err
	}
	// Reset emission state but keep the symbol knowledge gathered above.
	a.text = a.text[:0]
	a.data = a.data[:0]
	a.dataSz = 0
	a.tlsSz = 0
	a.symbols = a.symbols[:0]
	a.relocs = a.relocs[:0]
	a.refs = a.refs[:0]
	a.curFunc = ""
	if err := a.pass(lines, 2); err != nil {
		return err
	}
	a.endFunc()

	if err := a.resolveRefs(); err != nil {
		return err
	}

	a.file.Text = a.text
	a.file.Data = a.data
	a.file.DataSize = a.dataSz
	a.file.TLSSize = a.tlsSz
	a.file.Symbols = a.symbols
	a.file.Imports = a.importL
	a.file.Relocs = a.relocs
	if a.file.Name == "" {
		return &Error{File: a.srcName, Line: 1, Msg: "missing .lib or .exe directive"}
	}
	if err := a.file.Validate(); err != nil {
		return fmt.Errorf("asm: %s: %w", a.srcName, err)
	}
	return nil
}

func (a *assembler) pass(lines []string, pass int) error {
	for i, raw := range lines {
		a.line = i + 1
		line := raw
		if idx := strings.IndexByte(line, ';'); idx >= 0 {
			// Keep ';' inside string literals intact.
			if !strings.Contains(line[:idx], `"`) || strings.Count(line[:idx], `"`)%2 == 0 {
				line = line[:idx]
			}
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var err error
		switch {
		case strings.HasSuffix(line, ":"):
			err = a.defineLabel(strings.TrimSuffix(line, ":"), pass)
		case strings.HasPrefix(line, "."):
			err = a.directive(line, pass)
		default:
			err = a.instruction(line, pass)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (a *assembler) defineLabel(name string, pass int) error {
	if name == "" {
		return a.errf("empty label")
	}
	key := a.labelKey(name)
	if pass == 1 {
		if _, dup := a.labels[key]; dup {
			return a.errf("duplicate label %q", name)
		}
		a.labels[key] = int32(len(a.text))
	}
	return nil
}

// labelKey scopes plain labels to the current function so that different
// functions can reuse label names like .loop.
func (a *assembler) labelKey(name string) string {
	if strings.HasPrefix(name, ".") {
		return a.curFunc + "/" + name
	}
	return name
}

func (a *assembler) directive(line string, pass int) error {
	fields := splitFields(line)
	switch fields[0] {
	case ".lib", ".exe":
		if len(fields) != 2 {
			return a.errf("%s needs a name", fields[0])
		}
		a.file.Name = fields[1]
		if fields[0] == ".exe" {
			a.file.Kind = obj.Executable
		}
	case ".extern":
		if len(fields) != 2 {
			return a.errf(".extern needs a symbol name")
		}
		a.addImport(fields[1])
	case ".needs":
		if len(fields) != 2 {
			return a.errf(".needs needs a library name")
		}
		if pass == 1 {
			a.file.Needed = append(a.file.Needed, fields[1])
		}
	case ".global":
		if len(fields) != 2 {
			return a.errf(".global needs a symbol name")
		}
		a.exports[fields[1]] = true
	case ".func":
		if len(fields) != 2 {
			return a.errf(".func needs a name")
		}
		a.endFunc()
		a.curFunc = fields[1]
		a.curFuncOff = int32(len(a.text))
		if pass == 1 {
			if _, dup := a.labels[fields[1]]; dup {
				return a.errf("duplicate symbol %q", fields[1])
			}
			a.labels[fields[1]] = a.curFuncOff
			a.funcs = append(a.funcs, funcStart{fields[1], a.curFuncOff})
		}
	case ".endfunc":
		a.endFunc()
	case ".data":
		return a.dataReserve(fields, pass)
	case ".dataw":
		return a.dataWords(fields, pass)
	case ".datab":
		return a.dataBytes(line, fields, pass)
	case ".tls":
		return a.tlsReserve(fields, pass)
	default:
		return a.errf("unknown directive %q", fields[0])
	}
	return nil
}

func (a *assembler) endFunc() {
	if a.curFunc == "" {
		return
	}
	a.symbols = append(a.symbols, obj.Symbol{
		Name:     a.curFunc,
		Kind:     obj.SymFunc,
		Off:      a.curFuncOff,
		Size:     int32(len(a.text)) - a.curFuncOff,
		Exported: a.exports[a.curFunc],
	})
	a.curFunc = ""
}

func (a *assembler) dataReserve(fields []string, pass int) error {
	if len(fields) != 3 {
		return a.errf(".data needs: name size")
	}
	size, err := strconv.ParseInt(fields[2], 0, 32)
	if err != nil || size <= 0 {
		return a.errf("bad .data size %q", fields[2])
	}
	a.addDataSym(fields[1], int32(size), nil, pass)
	return nil
}

func (a *assembler) dataWords(fields []string, pass int) error {
	if len(fields) < 3 {
		return a.errf(".dataw needs: name v1 [v2 ...]")
	}
	init := make([]byte, 0, (len(fields)-2)*4)
	for _, f := range fields[2:] {
		v, err := strconv.ParseInt(f, 0, 64)
		if err != nil {
			return a.errf("bad .dataw value %q", f)
		}
		var w [4]byte
		putI32(w[:], int32(v))
		init = append(init, w[:]...)
	}
	a.addDataSym(fields[1], int32(len(init)), init, pass)
	return nil
}

func (a *assembler) dataBytes(line string, fields []string, pass int) error {
	if len(fields) < 3 {
		return a.errf(`.datab needs: name "literal"`)
	}
	qi := strings.Index(line, `"`)
	if qi < 0 {
		return a.errf(".datab literal must be quoted")
	}
	lit, err := strconv.Unquote(strings.TrimSpace(line[qi:]))
	if err != nil {
		return a.errf("bad .datab literal: %v", err)
	}
	// NUL-terminate, then pad to word alignment.
	b := append([]byte(lit), 0)
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	a.addDataSym(fields[1], int32(len(b)), b, pass)
	return nil
}

func (a *assembler) addDataSym(name string, size int32, init []byte, pass int) {
	off := a.dataSz
	if init != nil {
		// Initialised data must precede the BSS tail; we keep all data
		// initialised (zero-filled when reserved) for simplicity.
		a.data = append(a.data, init...)
	} else {
		a.data = append(a.data, make([]byte, size)...)
	}
	a.dataSz += size
	a.symbols = append(a.symbols, obj.Symbol{
		Name: name, Kind: obj.SymData, Off: off, Size: size,
		Exported: a.exports[name],
	})
	if pass == 1 {
		a.labels["$data$"+name] = off
	}
}

func (a *assembler) tlsReserve(fields []string, pass int) error {
	if len(fields) != 3 {
		return a.errf(".tls needs: name size")
	}
	size, err := strconv.ParseInt(fields[2], 0, 32)
	if err != nil || size <= 0 {
		return a.errf("bad .tls size %q", fields[2])
	}
	off := a.tlsSz
	a.tlsSz += int32(size)
	a.symbols = append(a.symbols, obj.Symbol{
		Name: fields[1], Kind: obj.SymTLS, Off: off, Size: int32(size),
		Exported: a.exports[fields[1]],
	})
	if pass == 1 {
		a.labels["$tls$"+fields[1]] = off
	}
	return nil
}

func (a *assembler) addImport(name string) int {
	if idx, ok := a.imports[name]; ok {
		return idx
	}
	idx := len(a.importL)
	a.imports[name] = idx
	a.importL = append(a.importL, name)
	return idx
}

func (a *assembler) emit(in isa.Inst) {
	var b [isa.Size]byte
	in.Encode(b[:])
	a.text = append(a.text, b[:]...)
}

func (a *assembler) instruction(line string, pass int) error {
	mn, rest := splitMnemonic(line)
	ops := splitOperands(rest)
	in, ref, err := a.parseInst(mn, ops)
	if err != nil {
		return err
	}
	off := int32(len(a.text))
	if pass == 2 && ref != nil {
		ref.instOff = off
		ref.line = a.line
		a.refs = append(a.refs, *ref)
	}
	a.emit(in)
	return nil
}

// parseInst decodes one instruction line into an Inst plus an optional
// symbolic reference to resolve after pass 2.
func (a *assembler) parseInst(mn string, ops []string) (isa.Inst, *pendingRef, error) {
	bad := func(format string, args ...interface{}) (isa.Inst, *pendingRef, error) {
		return isa.Inst{}, nil, a.errf(format, args...)
	}
	need := func(n int) error {
		if len(ops) != n {
			return a.errf("%s expects %d operand(s), got %d", mn, n, len(ops))
		}
		return nil
	}
	switch mn {
	case "nop":
		return isa.Inst{Op: isa.OpNop}, nil, need(0)
	case "halt":
		return isa.Inst{Op: isa.OpHalt}, nil, need(0)
	case "ret":
		return isa.Inst{Op: isa.OpRet}, nil, need(0)
	case "syscall":
		return isa.Inst{Op: isa.OpSyscall}, nil, need(0)

	case "mov", "add", "sub", "and", "or", "xor", "cmp", "shl", "shr":
		if err := need(2); err != nil {
			return bad("%v", err)
		}
		ra, err := isa.ParseReg(ops[0])
		if err != nil {
			return bad("%s: %v", mn, err)
		}
		if rb, err2 := isa.ParseReg(ops[1]); err2 == nil {
			op, ok := rrForm[mn]
			if !ok {
				return bad("%s does not accept a register second operand", mn)
			}
			return isa.Inst{Op: op, A: ra, B: rb}, nil, nil
		}
		imm, err := parseImm(ops[1])
		if err != nil {
			return bad("%s: bad immediate %q", mn, ops[1])
		}
		op, ok := riForm[mn]
		if !ok {
			return bad("%s does not accept an immediate", mn)
		}
		return isa.Inst{Op: op, A: ra, Imm: imm}, nil, nil

	case "mul", "div", "mod":
		if err := need(2); err != nil {
			return bad("%v", err)
		}
		ra, err := isa.ParseReg(ops[0])
		if err != nil {
			return bad("%s: %v", mn, err)
		}
		rb, err := isa.ParseReg(ops[1])
		if err != nil {
			return bad("%s needs two registers: %v", mn, err)
		}
		return isa.Inst{Op: rrForm[mn], A: ra, B: rb}, nil, nil

	case "neg", "not", "pop", "callr", "jmpi", "tlsbase":
		if err := need(1); err != nil {
			return bad("%v", err)
		}
		ra, err := isa.ParseReg(ops[0])
		if err != nil {
			return bad("%s: %v", mn, err)
		}
		ops1 := map[string]isa.Op{
			"neg": isa.OpNeg, "not": isa.OpNot, "pop": isa.OpPopR,
			"callr": isa.OpCallR, "jmpi": isa.OpJmpI, "tlsbase": isa.OpTLSBase,
		}
		return isa.Inst{Op: ops1[mn], A: ra}, nil, nil

	case "push":
		if err := need(1); err != nil {
			return bad("%v", err)
		}
		if ra, err := isa.ParseReg(ops[0]); err == nil {
			return isa.Inst{Op: isa.OpPushR, A: ra}, nil, nil
		}
		imm, err := parseImm(ops[0])
		if err != nil {
			return bad("push: bad operand %q", ops[0])
		}
		return isa.Inst{Op: isa.OpPushI, Imm: imm}, nil, nil

	case "load", "loadb":
		if err := need(2); err != nil {
			return bad("%v", err)
		}
		ra, err := isa.ParseReg(ops[0])
		if err != nil {
			return bad("%s: %v", mn, err)
		}
		rb, disp, err := parseMem(ops[1])
		if err != nil {
			return bad("%s: %v", mn, err)
		}
		op := isa.OpLoad
		if mn == "loadb" {
			op = isa.OpLoadB
		}
		return isa.Inst{Op: op, A: ra, B: rb, Imm: disp}, nil, nil

	case "store", "storeb":
		if err := need(2); err != nil {
			return bad("%v", err)
		}
		ra, disp, err := parseMem(ops[0])
		if err != nil {
			return bad("%s: %v", mn, err)
		}
		if rb, err2 := isa.ParseReg(ops[1]); err2 == nil {
			op := isa.OpStoreR
			if mn == "storeb" {
				op = isa.OpStoreB
			}
			return isa.Inst{Op: op, A: ra, B: rb, Imm: disp}, nil, nil
		}
		if mn == "storeb" {
			return bad("storeb requires a register source")
		}
		imm, err := parseImm(ops[1])
		if err != nil {
			return bad("store: bad source %q", ops[1])
		}
		if disp%4 != 0 || disp/4 > 127 || disp/4 < -128 {
			return bad("store imm: displacement %d not encodable", disp)
		}
		return isa.Inst{Op: isa.OpStoreI, A: ra, Aux: int8(disp / 4), Imm: imm}, nil, nil

	case "jmp", "je", "jne", "jl", "jle", "jg", "jge", "call":
		if err := need(1); err != nil {
			return bad("%v", err)
		}
		ops1 := map[string]isa.Op{
			"jmp": isa.OpJmp, "je": isa.OpJe, "jne": isa.OpJne, "jl": isa.OpJl,
			"jle": isa.OpJle, "jg": isa.OpJg, "jge": isa.OpJge, "call": isa.OpCall,
		}
		if imm, err := parseImm(ops[0]); err == nil {
			return isa.Inst{Op: ops1[mn], Imm: imm}, nil, nil
		}
		return isa.Inst{Op: ops1[mn]}, &pendingRef{sym: ops[0], kind: refBranch}, nil

	case "lea":
		if err := need(2); err != nil {
			return bad("%v", err)
		}
		ra, err := isa.ParseReg(ops[0])
		if err != nil {
			return bad("lea: %v", err)
		}
		return isa.Inst{Op: isa.OpLea, A: ra}, &pendingRef{sym: ops[1], kind: refLea}, nil

	case "dlnext":
		if err := need(2); err != nil {
			return bad("%v", err)
		}
		ra, err := isa.ParseReg(ops[0])
		if err != nil {
			return bad("dlnext: %v", err)
		}
		return isa.Inst{Op: isa.OpDlNext, A: ra}, &pendingRef{sym: ops[1], kind: refDlNext}, nil
	}
	return bad("unknown mnemonic %q", mn)
}

var riForm = map[string]isa.Op{
	"mov": isa.OpMovRI, "add": isa.OpAddRI, "sub": isa.OpSubRI,
	"and": isa.OpAndRI, "or": isa.OpOrRI, "xor": isa.OpXorRI,
	"cmp": isa.OpCmpRI, "shl": isa.OpShlRI, "shr": isa.OpShrRI,
}

var rrForm = map[string]isa.Op{
	"mov": isa.OpMovRR, "add": isa.OpAddRR, "sub": isa.OpSubRR,
	"and": isa.OpAndRR, "or": isa.OpOrRR, "xor": isa.OpXorRR,
	"cmp": isa.OpCmpRR, "mul": isa.OpMulRR, "div": isa.OpDivRR, "mod": isa.OpModRR,
}

// resolveRefs patches symbolic operands after both passes and emits
// relocation records.
func (a *assembler) resolveRefs() error {
	for _, ref := range a.refs {
		a.line = ref.line
		inst, err := isa.Decode(a.text[ref.instOff:])
		if err != nil {
			return a.errf("internal: %v", err)
		}
		switch ref.kind {
		case refBranch:
			// Function-local label or function symbol.
			fn := a.funcNameAt(ref.instOff)
			if off, ok := a.labels[fn+"/"+ref.sym]; ok {
				inst.Imm = off
				a.relocs = append(a.relocs, obj.Reloc{Off: ref.instOff, Kind: obj.RelocText, Index: off})
			} else if off, ok := a.labels[ref.sym]; ok {
				inst.Imm = off
				a.relocs = append(a.relocs, obj.Reloc{Off: ref.instOff, Kind: obj.RelocText, Index: off})
			} else if idx, ok := a.imports[ref.sym]; ok {
				inst.Imm = 0
				a.relocs = append(a.relocs, obj.Reloc{Off: ref.instOff, Kind: obj.RelocImport, Index: int32(idx)})
			} else {
				return a.errf("undefined target %q", ref.sym)
			}
		case refLea:
			if off, ok := a.labels["$data$"+ref.sym]; ok {
				inst.Imm = off
				a.relocs = append(a.relocs, obj.Reloc{Off: ref.instOff, Kind: obj.RelocData, Index: off})
			} else if off, ok := a.labels["$tls$"+ref.sym]; ok {
				inst.Imm = off
				a.relocs = append(a.relocs, obj.Reloc{Off: ref.instOff, Kind: obj.RelocTLS, Index: off})
			} else if off, ok := a.labels[ref.sym]; ok {
				inst.Imm = off
				a.relocs = append(a.relocs, obj.Reloc{Off: ref.instOff, Kind: obj.RelocText, Index: off})
			} else if idx, ok := a.imports[ref.sym]; ok {
				inst.Imm = 0
				a.relocs = append(a.relocs, obj.Reloc{Off: ref.instOff, Kind: obj.RelocImport, Index: int32(idx)})
			} else {
				return a.errf("undefined symbol %q in lea", ref.sym)
			}
		case refDlNext:
			// dlnext names are looked up at run time starting *after*
			// the current module; the operand is an import-table index.
			idx := a.addImport(ref.sym)
			// Rebuild the import list into the file on the fly; the
			// final list is written in run().
			inst.Imm = int32(idx)
		}
		inst.Encode(a.text[ref.instOff:])
	}
	return nil
}

// funcNameAt names the function whose text holds the instruction at
// off: the last one declared at or before it ("" before the first).
func (a *assembler) funcNameAt(off int32) string {
	i := sort.Search(len(a.funcs), func(i int) bool { return a.funcs[i].off > off })
	if i == 0 {
		return ""
	}
	return a.funcs[i-1].name
}

func splitMnemonic(line string) (string, string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return line, ""
	}
	return line[:i], strings.TrimSpace(line[i+1:])
}

// splitOperands splits "r0, [r1+8]" into {"r0", "[r1+8]"}.
func splitOperands(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

func splitFields(s string) []string {
	return strings.Fields(s)
}

func parseImm(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, err
	}
	return int32(v), nil
}

// parseMem parses "[reg+disp]" or "[reg-disp]" or "[reg]".
func parseMem(s string) (isa.Reg, int32, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	sign := int32(1)
	var regPart, dispPart string
	if i := strings.IndexByte(inner, '+'); i >= 0 {
		regPart, dispPart = inner[:i], inner[i+1:]
	} else if i := strings.IndexByte(inner, '-'); i >= 0 {
		regPart, dispPart = inner[:i], inner[i+1:]
		sign = -1
	} else {
		regPart = inner
	}
	r, err := isa.ParseReg(strings.TrimSpace(regPart))
	if err != nil {
		return 0, 0, err
	}
	var disp int32
	if dispPart != "" {
		d, err := strconv.ParseInt(strings.TrimSpace(dispPart), 0, 32)
		if err != nil {
			return 0, 0, fmt.Errorf("bad displacement %q", dispPart)
		}
		disp = int32(d) * sign
	}
	return r, disp, nil
}

func putI32(b []byte, v int32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}
