package profile

import (
	"strings"
	"testing"
	"testing/quick"
)

func sampleProfile() *Profile {
	return &Profile{
		Library: "libc.so",
		Functions: []Function{
			{Name: "close", ErrorCodes: []ErrorCode{{
				Retval: -1,
				SideEffects: []SideEffect{
					{Type: SideEffectTLS, Module: "libc.so", Offset: 0, Op: "neg", Value: -9},
					{Type: SideEffectTLS, Module: "libc.so", Offset: 0, Op: "neg", Value: -5},
					{Type: SideEffectTLS, Module: "libc.so", Offset: 0, Op: "neg", Value: -4},
				},
			}}},
			{Name: "alloc", ErrorCodes: []ErrorCode{{
				Retval:      0,
				SideEffects: []SideEffect{{Type: SideEffectTLS, Module: "libc.so", Value: 12}},
			}}},
			{Name: "probe", ErrorCodes: []ErrorCode{
				{Retval: -2},
				{Retval: -7, SideEffects: []SideEffect{
					{Type: SideEffectArgument, ArgIdx: 1, Value: 3},
				}},
			}},
		},
	}
}

func TestXMLMatchesPaperShape(t *testing.T) {
	p := sampleProfile()
	blob, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// The §3.3 vocabulary: profile/function/error-codes/side-effect with
	// type and module attributes and the constant as element text.
	for _, want := range []string{
		`<profile library="libc.so">`,
		`<function name="close">`,
		`<error-codes retval="-1">`,
		`type="TLS"`, `module="libc.so"`, `op="neg"`, `>-9</side-effect>`,
	} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("XML missing %s:\n%s", want, blob)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	p := sampleProfile()
	blob, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if q.Library != p.Library || len(q.Functions) != len(p.Functions) {
		t.Fatal("structure lost")
	}
	c, ok := q.Lookup("close")
	if !ok || len(c.ErrorCodes) != 1 || len(c.ErrorCodes[0].SideEffects) != 3 {
		t.Fatalf("close = %+v", c)
	}
	se := c.ErrorCodes[0].SideEffects[0]
	if se.Op != "neg" || se.Applied() != -se.Value {
		t.Errorf("side effect semantics lost: %+v", se)
	}
}

func TestApplied(t *testing.T) {
	if (SideEffect{Op: "neg", Value: -9}).Applied() != 9 {
		t.Error("neg application")
	}
	if (SideEffect{Value: 12}).Applied() != 12 {
		t.Error("direct application")
	}
}

func TestRetvalsSorted(t *testing.T) {
	f := Function{ErrorCodes: []ErrorCode{{Retval: 5}, {Retval: -3}, {Retval: 0}}}
	got := f.Retvals()
	if len(got) != 3 || got[0] != -3 || got[1] != 0 || got[2] != 5 {
		t.Errorf("retvals = %v", got)
	}
}

func TestSortDeterminism(t *testing.T) {
	a := sampleProfile()
	b := sampleProfile()
	// Shuffle b's function order.
	b.Functions[0], b.Functions[2] = b.Functions[2], b.Functions[0]
	ab, _ := a.Marshal()
	bb, _ := b.Marshal()
	if string(ab) != string(bb) {
		t.Error("Marshal must canonicalise ordering")
	}
}

func TestSetLookup(t *testing.T) {
	s := Set{"libc.so": sampleProfile()}
	if _, _, ok := s.FindFunction("nope"); ok {
		t.Error("a function no profile names should not be found")
	}
	lib, f, ok := s.FindFunction("alloc")
	if !ok || lib != "libc.so" || f.Name != "alloc" {
		t.Errorf("FindFunction = %q %v %v", lib, f, ok)
	}
	if _, _, ok := s.FindFunction("missing"); ok {
		t.Error("missing function should fail")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte("<<<not xml")); err == nil {
		t.Error("garbage should not unmarshal")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(retval int32, seVal int32, off int32, neg bool) bool {
		op := ""
		if neg {
			op = "neg"
		}
		p := &Profile{Library: "l", Functions: []Function{{
			Name: "f",
			ErrorCodes: []ErrorCode{{
				Retval: retval,
				SideEffects: []SideEffect{{
					Type: SideEffectTLS, Module: "l", Offset: off, Op: op, Value: seVal,
				}},
			}},
		}}}
		blob, err := p.Marshal()
		if err != nil {
			return false
		}
		q, err := Unmarshal(blob)
		if err != nil {
			return false
		}
		fn, ok := q.Lookup("f")
		if !ok || len(fn.ErrorCodes) != 1 {
			return false
		}
		ec := fn.ErrorCodes[0]
		return ec.Retval == retval && len(ec.SideEffects) == 1 &&
			ec.SideEffects[0].Value == seVal && ec.SideEffects[0].Offset == off
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringSummary(t *testing.T) {
	s := sampleProfile().String()
	if !strings.Contains(s, "close") || !strings.Contains(s, "3 se") {
		t.Errorf("summary = %q", s)
	}
}
