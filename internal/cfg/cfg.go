// Package cfg constructs per-function control-flow graphs from
// disassembled SIA-32 code.
//
// This is step two of the LFI profiler pipeline (§3.1): for every exported
// function (and, recursively, for the dependent functions it calls) we
// build a CFG like the paper's Figure 2, on which the reverse
// constant-propagation of package dataflow runs.
//
// Construction explores instructions reachable from the function entry, so
// it works on stripped libraries where local function extents are unknown.
// Indirect jumps (OpJmpI) yield blocks without successors — the same CFG
// incompleteness the paper measures at 0.13% of branches and deliberately
// ignores.
package cfg

import (
	"fmt"
	"sort"

	"lfi/internal/disasm"
	"lfi/internal/isa"
)

// Block is a basic block: a maximal straight-line instruction sequence.
type Block struct {
	ID    int
	Start int32 // text offset of the first instruction
	End   int32 // text offset one past the last instruction
	Succs []*Block
	Preds []*Block

	graph *Graph
}

// NumInsts returns the number of instructions in the block.
func (b *Block) NumInsts() int { return int(b.End-b.Start) / isa.Size }

// Inst returns the i-th instruction of the block.
func (b *Block) Inst(i int) isa.Inst {
	in, _ := b.graph.Prog.InstAt(b.Start + int32(i*isa.Size))
	return in
}

// InstOff returns the text offset of the i-th instruction of the block.
func (b *Block) InstOff(i int) int32 { return b.Start + int32(i*isa.Size) }

// Last returns the final instruction of the block.
func (b *Block) Last() isa.Inst { return b.Inst(b.NumInsts() - 1) }

// IsExit reports whether the block ends the function (OpRet or OpHalt).
func (b *Block) IsExit() bool {
	op := b.Last().Op
	return op == isa.OpRet || op == isa.OpHalt
}

// Graph is the CFG of one function.
type Graph struct {
	Entry  *Block
	Blocks []*Block // sorted by Start offset
	Prog   *disasm.Program
	// Incomplete is true when an indirect jump prevented full successor
	// discovery (the paper's §3.1 CFG-incompleteness caveat).
	Incomplete bool

	byStart map[int32]*Block
}

// ExitBlocks returns the blocks ending in OpRet or OpHalt.
func (g *Graph) ExitBlocks() []*Block {
	var out []*Block
	for _, b := range g.Blocks {
		if b.IsExit() {
			out = append(out, b)
		}
	}
	return out
}

// Build constructs the CFG of the function whose entry is at text offset
// entry. It explores only instructions reachable from the entry.
func Build(p *disasm.Program, entry int32) (*Graph, error) {
	if _, ok := p.InstAt(entry); !ok {
		return nil, fmt.Errorf("cfg: entry offset %#x out of range", entry)
	}

	// Phase 1: discover reachable instructions and block leaders.
	reachable := make(map[int32]bool)
	leaders := map[int32]bool{entry: true}
	incomplete := false

	work := []int32{entry}
	for len(work) > 0 {
		off := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			if reachable[off] {
				break
			}
			in, ok := p.InstAt(off)
			if !ok {
				return nil, fmt.Errorf("cfg: walked off text at %#x", off)
			}
			reachable[off] = true
			next := off + isa.Size

			if in.Op.IsBranch() {
				tgt := branchTarget(p, off, in)
				leaders[tgt] = true
				work = append(work, tgt)
				if in.Op == isa.OpJmp {
					break // no fall-through
				}
				leaders[next] = true
				off = next
				continue
			}
			switch in.Op {
			case isa.OpRet, isa.OpHalt:
				// Function (or program) ends here on this path.
			case isa.OpJmpI:
				incomplete = true
			default:
				off = next
				continue
			}
			break
		}
	}

	// Instructions after a terminator that are targets become leaders;
	// also any reachable instruction following a terminator.
	for off := range reachable {
		in, _ := p.InstAt(off)
		if in.Op.Terminates() {
			next := off + isa.Size
			if reachable[next] {
				leaders[next] = true
			}
		}
	}

	// Phase 2: carve blocks between leaders.
	starts := make([]int32, 0, len(leaders))
	for off := range leaders {
		if reachable[off] {
			starts = append(starts, off)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })

	g := &Graph{Prog: p, Incomplete: incomplete, byStart: make(map[int32]*Block, len(starts))}
	for i, s := range starts {
		b := &Block{ID: i, Start: s, graph: g}
		// Extend the block until a terminator or the next leader.
		off := s
		for {
			in, ok := p.InstAt(off)
			if !ok {
				break
			}
			next := off + isa.Size
			if in.Op.Terminates() {
				b.End = next
				break
			}
			if leaders[next] && reachable[next] {
				b.End = next
				break
			}
			if !reachable[next] {
				b.End = next
				break
			}
			off = next
		}
		if b.End == 0 {
			b.End = s + isa.Size
		}
		g.Blocks = append(g.Blocks, b)
		g.byStart[s] = b
	}

	// Phase 3: wire successors.
	for _, b := range g.Blocks {
		last := b.Last()
		lastOff := b.End - isa.Size
		switch {
		case last.Op == isa.OpJmp:
			g.addEdge(b, branchTarget(p, lastOff, last))
		case last.Op.IsCondBranch():
			g.addEdge(b, branchTarget(p, lastOff, last))
			g.addEdge(b, b.End)
		case last.Op == isa.OpRet, last.Op == isa.OpHalt, last.Op == isa.OpJmpI:
			// No successors (JmpI: unknown → CFG incomplete).
		default:
			g.addEdge(b, b.End)
		}
	}
	g.Entry = g.byStart[entry]
	return g, nil
}

// StreamLeaders marks basic-block leaders in a fully relocated, linearly
// decoded instruction stream — the whole-text analogue of Build's phase-1
// leader discovery, used by the VM's block-compiled execution engine to
// carve an image's text into superblocks at load time.
//
// Where Build explores only instructions reachable from one function
// entry (it runs on unrelocated per-function disassembly, resolving
// branch targets through relocations), StreamLeaders sweeps the whole
// stream: instruction 0, every direct branch or call target that lands
// inside the stream, and every instruction following a control transfer
// (isa.Op.Transfers) is a leader. targetIdx translates a branch/call
// immediate — a virtual address once text is relocated — to an
// instruction index, reporting false for targets outside this stream
// (cross-module calls, host-function addresses). Indirect transfers
// (OpJmpI, OpCallR, OpRet) contribute no targets; an execution engine
// must therefore tolerate control entering between leaders, exactly as
// Build tolerates CFG incompleteness (§3.1).
func StreamLeaders(insts []isa.Inst, targetIdx func(imm int32) (int, bool)) []bool {
	leaders := make([]bool, len(insts))
	if len(insts) > 0 {
		leaders[0] = true
	}
	for i, in := range insts {
		if in.Op.IsBranch() || in.Op == isa.OpCall {
			if t, ok := targetIdx(in.Imm); ok && t >= 0 && t < len(insts) {
				leaders[t] = true
			}
		}
		if in.Op.Transfers() && i+1 < len(insts) {
			leaders[i+1] = true
		}
	}
	return leaders
}

func (g *Graph) addEdge(from *Block, toOff int32) {
	to, ok := g.byStart[toOff]
	if !ok {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func branchTarget(p *disasm.Program, off int32, in isa.Inst) int32 {
	// Branch targets are local text offsets, either directly in Imm or
	// via a text relocation.
	if r, ok := p.RelocAt(off); ok {
		return r.Index
	}
	return in.Imm
}

// Dot renders the CFG in Graphviz dot syntax; useful for debugging and for
// reproducing the paper's Figure 2 visually.
func (g *Graph) Dot(name string) string {
	out := "digraph \"" + name + "\" {\n  node [shape=box fontname=monospace];\n"
	for _, b := range g.Blocks {
		label := ""
		for i := 0; i < b.NumInsts(); i++ {
			label += fmt.Sprintf("%x: %s\\l", b.InstOff(i), b.Inst(i).String())
		}
		out += fmt.Sprintf("  b%d [label=\"%s\"];\n", b.ID, label)
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			out += fmt.Sprintf("  b%d -> b%d;\n", b.ID, s.ID)
		}
	}
	return out + "}\n"
}
