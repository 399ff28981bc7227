// Package profile defines the library fault profile — the output of the
// LFI profiler (§3.3) and the input of the LFI controller (§5).
//
// A fault profile lists, for every exported function of a library, the
// possible error return values and the side effects associated with each
// value. The serialisation is the paper's XML format:
//
//	<profile library="libc.so">
//	  <function name="close">
//	    <error-codes retval="-1">
//	      <side-effect type="TLS" module="libc.so" offset="0" op="neg">-9</side-effect>
//	      ...
//	    </error-codes>
//	  </function>
//	</profile>
//
// Side-effect values are recorded exactly as the paper records them: the
// constant found by the propagation analysis (for the TLS errno channel
// this is the kernel's negative errno, e.g. -9; op="neg" tells the
// injector the stored value is its negation, i.e. errno = 9).
package profile

import (
	"encoding/xml"
	"fmt"
	"sort"
	"strings"
)

// SideEffectType enumerates the paper's error side channels.
type SideEffectType string

// Side-effect channel names as they appear in profile XML.
const (
	SideEffectTLS      SideEffectType = "TLS"
	SideEffectGlobal   SideEffectType = "global"
	SideEffectArgument SideEffectType = "argument"
)

// SideEffect describes additional error information exposed alongside an
// error return value.
type SideEffect struct {
	Type SideEffectType `xml:"type,attr"`
	// Module and Offset locate the affected TLS/global slot.
	Module string `xml:"module,attr,omitempty"`
	Offset int32  `xml:"offset,attr"`
	// ArgIdx is the output-argument index for argument-type effects.
	ArgIdx int32 `xml:"arg,attr,omitempty"`
	// Op is "neg" when the injector must store the negation of Value
	// (the glibc errno = -eax pattern), empty for a direct store.
	Op string `xml:"op,attr,omitempty"`
	// Value is the propagated constant, rendered as element text.
	Value int32 `xml:",chardata"`
}

// Applied returns the concrete value the injector should store.
func (s SideEffect) Applied() int32 {
	if s.Op == "neg" {
		return -s.Value
	}
	return s.Value
}

// ErrorCode is one possible error return value with its side effects.
type ErrorCode struct {
	Retval      int32        `xml:"retval,attr"`
	SideEffects []SideEffect `xml:"side-effect"`
}

// Function is the fault profile of one exported function.
type Function struct {
	Name       string      `xml:"name,attr"`
	ErrorCodes []ErrorCode `xml:"error-codes"`
}

// Retvals returns the function's distinct error return values, sorted.
func (f *Function) Retvals() []int32 {
	out := make([]int32, 0, len(f.ErrorCodes))
	for _, ec := range f.ErrorCodes {
		out = append(out, ec.Retval)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Profile is the fault profile of one library.
type Profile struct {
	XMLName   xml.Name   `xml:"profile"`
	Library   string     `xml:"library,attr"`
	Functions []Function `xml:"function"`
}

// Lookup returns the profile of the named function.
func (p *Profile) Lookup(name string) (*Function, bool) {
	for i := range p.Functions {
		if p.Functions[i].Name == name {
			return &p.Functions[i], true
		}
	}
	return nil, false
}

// Sort orders functions by name and error codes by retval, making the
// profile deterministic for serialisation and diffing.
func (p *Profile) Sort() {
	sort.Slice(p.Functions, func(i, j int) bool {
		return p.Functions[i].Name < p.Functions[j].Name
	})
	for i := range p.Functions {
		ecs := p.Functions[i].ErrorCodes
		sort.Slice(ecs, func(a, b int) bool { return ecs[a].Retval < ecs[b].Retval })
		for j := range ecs {
			ses := ecs[j].SideEffects
			sort.Slice(ses, func(a, b int) bool {
				if ses[a].Type != ses[b].Type {
					return ses[a].Type < ses[b].Type
				}
				if ses[a].Offset != ses[b].Offset {
					return ses[a].Offset < ses[b].Offset
				}
				return ses[a].Value < ses[b].Value
			})
		}
	}
}

// Marshal renders the profile as indented XML.
func (p *Profile) Marshal() ([]byte, error) {
	p.Sort()
	b, err := xml.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("profile: marshal %s: %w", p.Library, err)
	}
	return append(b, '\n'), nil
}

// Unmarshal parses profile XML.
func Unmarshal(data []byte) (*Profile, error) {
	var p Profile
	if err := xml.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("profile: unmarshal: %w", err)
	}
	return &p, nil
}

// String renders a compact human-readable summary for logs and tests.
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s (%d functions)\n", p.Library, len(p.Functions))
	for _, f := range p.Functions {
		fmt.Fprintf(&b, "  %s:", f.Name)
		for _, ec := range f.ErrorCodes {
			fmt.Fprintf(&b, " %d", ec.Retval)
			if len(ec.SideEffects) > 0 {
				fmt.Fprintf(&b, "(%d se)", len(ec.SideEffects))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Set is a collection of profiles keyed by library name — what the
// controller receives for a multi-library injection experiment.
type Set map[string]*Profile

// FindFunction searches every profile for the named function, returning
// the owning library too (the interception mechanism is name-based, so
// function names are assumed unique across the profiled set, as with
// LD_PRELOAD interposition).
func (s Set) FindFunction(funcName string) (string, *Function, bool) {
	names := make([]string, 0, len(s))
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if f, ok := s[n].Lookup(funcName); ok {
			return n, f, true
		}
	}
	return "", nil, false
}
