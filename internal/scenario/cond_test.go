package scenario

import (
	"fmt"
	"strings"
	"testing"
)

// evalPlan compiles one write-guarding trigger with the given conds and
// returns the per-call decisions for nCalls calls.
func evalConds(t *testing.T, conds []Cond, nCalls int) []bool {
	t.Helper()
	plan := &Plan{Triggers: []Trigger{{Function: "write", Retval: "-1", Conds: conds}}}
	cp, err := Compile(plan, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ev := cp.NewEvaluator()
	out := make([]bool, nCalls)
	for i := range out {
		out[i] = ev.OnCall("write", nil).Inject
	}
	return out
}

func TestCondCallsWindow(t *testing.T) {
	cases := []struct {
		name string
		cond Cond
		want []bool // per call, 8 calls
	}{
		{"after", Calls(3, 0, 0),
			[]bool{false, false, false, true, true, true, true, true}},
		{"until", Calls(0, 0, 3),
			[]bool{true, true, true, false, false, false, false, false}},
		{"every", Calls(0, 3, 0),
			[]bool{true, false, false, true, false, false, true, false}},
		{"window", Calls(2, 2, 7),
			[]bool{false, false, true, false, true, false, true, false}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := evalConds(t, []Cond{c.cond}, len(c.want))
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Errorf("call %d: inject=%v, want %v (got %v)", i+1, got[i], c.want[i], got)
					break
				}
			}
		})
	}
}

func TestCondComposition(t *testing.T) {
	cases := []struct {
		name string
		cond Cond
		want []bool // 6 calls
	}{
		{"and", And(Calls(2, 0, 0), Calls(0, 0, 4)),
			[]bool{false, false, true, true, false, false}},
		{"or", Or(Calls(0, 0, 2), Calls(5, 0, 0)),
			[]bool{true, true, false, false, false, true}},
		{"not", Not(Calls(0, 0, 3)),
			[]bool{false, false, false, true, true, true}},
		{"nested", And(Not(Calls(0, 0, 1)), Or(Calls(0, 0, 2), Calls(4, 0, 0))),
			[]bool{false, true, false, false, true, true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := evalConds(t, []Cond{c.cond}, len(c.want))
			for i := range c.want {
				if got[i] != c.want[i] {
					t.Errorf("call %d: inject=%v, want %v (got %v)", i+1, got[i], c.want[i], got)
					break
				}
			}
		})
	}
}

func TestCondPidAndStack(t *testing.T) {
	plan := &Plan{Triggers: []Trigger{{Function: "f", Retval: "-1",
		Conds: []Cond{And(PidIs(2), Stack("f", "caller"))}}}}
	cp := MustCompile(plan, nil)
	stack := []StackFrame{{Symbol: "f"}, {Symbol: "caller"}}

	ev := cp.NewEvaluator()
	ev.SetPID(1)
	if ev.OnCall("f", stack).Inject {
		t.Error("pid 1 must not match <pid is=2>")
	}
	ev2 := cp.NewEvaluator()
	ev2.SetPID(2)
	if !ev2.OnCall("f", stack).Inject {
		t.Error("pid 2 with matching stack must fire")
	}
	ev3 := cp.NewEvaluator()
	ev3.SetPID(2)
	if ev3.OnCall("f", []StackFrame{{Symbol: "f"}, {Symbol: "other"}}).Inject {
		t.Error("mismatched stack must not fire")
	}
}

func TestCondCyclesWindow(t *testing.T) {
	plan := &Plan{Triggers: []Trigger{{Function: "f", Retval: "-1",
		Conds: []Cond{Cycles(100, 200)}}}}
	ev := MustCompile(plan, nil).NewEvaluator()
	if ev.OnCallAt("f", nil, 50).Inject {
		t.Error("cycle 50 outside [100,200]")
	}
	if !ev.OnCallAt("f", nil, 150).Inject {
		t.Error("cycle 150 inside [100,200]")
	}
	if ev.OnCallAt("f", nil, 250).Inject {
		t.Error("cycle 250 outside [100,200]")
	}
	// OnCall sees cycle 0.
	if ev.OnCall("f", nil).Inject {
		t.Error("OnCall evaluates cycle windows at cycle 0")
	}
}

func TestCondAfterFaultAndSticky(t *testing.T) {
	plan := &Plan{Triggers: []Trigger{
		{Function: "malloc", Inject: 3, Retval: "0", Once: true},
		{Function: "write", Retval: "-1", Sticky: true,
			Conds: []Cond{AfterFault("malloc")}},
	}}
	ev := MustCompile(plan, nil).NewEvaluator()
	for i := 1; i <= 2; i++ {
		if ev.OnCall("write", nil).Inject {
			t.Fatalf("write call %d injected before any malloc fault", i)
		}
		if d := ev.OnCall("malloc", nil); d.Inject {
			t.Fatalf("malloc call %d fired early", i)
		}
	}
	if !ev.OnCall("malloc", nil).Inject {
		t.Fatal("malloc call 3 must fire")
	}
	if ev.FaultCount("malloc") != 1 {
		t.Errorf("malloc fault count = %d", ev.FaultCount("malloc"))
	}
	// Every subsequent write fails: first via <after-fault>, then sticky.
	for i := 3; i <= 6; i++ {
		if !ev.OnCall("write", nil).Inject {
			t.Errorf("write call %d should fail after the malloc fault", i)
		}
	}
	if ev.FaultCount("write") != 4 {
		t.Errorf("write fault count = %d, want 4", ev.FaultCount("write"))
	}
}

func TestCondAfterFaultCount(t *testing.T) {
	plan := &Plan{Triggers: []Trigger{
		{Function: "malloc", Retval: "0"}, // every call
		{Function: "write", Retval: "-1", Conds: []Cond{AfterFaultN("malloc", 3)}},
	}}
	ev := MustCompile(plan, nil).NewEvaluator()
	for i := 1; i <= 2; i++ {
		ev.OnCall("malloc", nil)
		if ev.OnCall("write", nil).Inject {
			t.Fatalf("write injected after only %d malloc faults", i)
		}
	}
	ev.OnCall("malloc", nil)
	if !ev.OnCall("write", nil).Inject {
		t.Error("write should inject after 3 malloc faults")
	}
}

func TestStickyRefireSemantics(t *testing.T) {
	plan := &Plan{Triggers: []Trigger{{Function: "f", Inject: 2, Retval: "-1", Errno: "EIO", Sticky: true}}}
	ev := MustCompile(plan, nil).NewEvaluator()
	if ev.OnCall("f", nil).Inject {
		t.Error("call 1 precedes the window")
	}
	for i := 2; i <= 5; i++ {
		d := ev.OnCall("f", nil)
		if !d.Inject || d.Retval != -1 || !d.HasErrno {
			t.Errorf("call %d: sticky trigger must keep failing: %+v", i, d)
		}
	}
}

func TestCondProbabilityDeterminism(t *testing.T) {
	plan := &Plan{Seed: 11, Triggers: []Trigger{{Function: "f", Retval: "-1",
		Conds: []Cond{Probability(40)}}}}
	cp := MustCompile(plan, nil)
	run := func() []bool {
		ev := cp.NewEvaluator()
		out := make([]bool, 60)
		for i := range out {
			out[i] = ev.OnCall("f", nil).Inject
		}
		return out
	}
	a, b := run(), run()
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("probability condition is not deterministic per seed")
		}
		if a[i] {
			fires++
		}
	}
	if fires == 0 || fires == len(a) {
		t.Errorf("fires = %d/%d at 40%%", fires, len(a))
	}
}

func TestCondXMLRoundTrip(t *testing.T) {
	const in = `<plan>
  <function name="write" retval="-1" errno="ENOSPC" sticky="true">
    <and>
      <after-fault function="malloc"></after-fault>
      <not>
        <calls until="2"></calls>
      </not>
      <or>
        <pid is="2"></pid>
        <cycles min="100" max="900"></cycles>
        <probability pct="12.5"></probability>
        <stacktrace>
          <frame>0xb824490</frame>
          <frame>flush</frame>
        </stacktrace>
      </or>
    </and>
  </function>
</plan>`
	p, err := Unmarshal([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Triggers[0]
	if !tr.Sticky || len(tr.Conds) != 1 {
		t.Fatalf("trigger = %+v", tr)
	}
	and := tr.Conds[0]
	if and.XMLName.Local != "and" || len(and.Kids) != 3 {
		t.Fatalf("and = %+v", and)
	}
	or := and.Kids[2]
	if or.XMLName.Local != "or" || len(or.Kids) != 4 {
		t.Fatalf("or = %+v", or)
	}
	if or.Kids[3].XMLName.Local != "stacktrace" || len(or.Kids[3].Frames) != 2 {
		t.Fatalf("stack leaf = %+v", or.Kids[3])
	}
	first, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := Unmarshal(first)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, first)
	}
	second, err := q.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Errorf("marshal not a fixed point:\n%s\nvs\n%s", first, second)
	}

	// Clone must deep-copy the condition tree.
	c := p.Clone()
	c.Triggers[0].Conds[0].Kids[2].Kids[3].Frames[1] = "mutated"
	if p.Triggers[0].Conds[0].Kids[2].Kids[3].Frames[1] != "flush" {
		t.Error("Clone shares condition state with the original")
	}
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		xml  string
		want string // substring of the error
	}{
		{"bad retval", `<plan><function name="f" retval="x?"></function></plan>`, `bad retval "x?"`},
		{"bad errno", `<plan><function name="f" errno="EWHAT"></function></plan>`, `bad errno "EWHAT"`},
		{"bad errno position", `<plan><function name="ok" retval="0"></function><function name="g" errno="12junk"></function></plan>`, `trigger 1 (function "g")`},
		{"sticky once", `<plan><function name="f" retval="-1" sticky="true" once="true"></function></plan>`, "contradicts"},
		{"missing name", `<plan><function retval="-1"></function></plan>`, "missing function name"},
		{"unknown cond", `<plan><function name="f" retval="-1"><frobnicate></frobnicate></function></plan>`, "unknown condition element"},
		{"not arity", `<plan><function name="f" retval="-1"><not><calls after="1"></calls><calls after="2"></calls></not></function></plan>`, "exactly one child"},
		{"empty and", `<plan><function name="f" retval="-1"><and></and></function></plan>`, "at least one child"},
		{"empty window", `<plan><function name="f" retval="-1"><calls after="5" until="5"></calls></function></plan>`, "never exceeds"},
		{"bare calls", `<plan><function name="f" retval="-1"><calls></calls></function></plan>`, "at least one of"},
		{"probability range", `<plan><function name="f" retval="-1"><probability pct="150"></probability></function></plan>`, "outside (0, 100]"},
		{"pid zero", `<plan><function name="f" retval="-1"><pid></pid></function></plan>`, "<pid> needs"},
		{"after-fault unnamed", `<plan><function name="f" retval="-1"><after-fault></after-fault></function></plan>`, "<after-fault> needs"},
		{"stray attr", `<plan><function name="f" retval="-1"><calls after="1" pct="5"></calls></function></plan>`, "takes only"},
		{"empty stack cond", `<plan><function name="f" retval="-1"><not><stacktrace></stacktrace></not></function></plan>`, "at least one <frame>"},
		{"bad frame addr", `<plan><function name="f" retval="-1"><stacktrace><frame>0xzz</frame></stacktrace></function></plan>`, "bad stack frame address"},
		{"bad flat frame", `<plan><function name="f" retval="-1"><stacktrace><frame>0x</frame></stacktrace></function></plan>`, "bad stack frame address"},
		{"cycles empty", `<plan><function name="f" retval="-1"><cycles></cycles></function></plan>`, "<cycles> needs"},
		{"cycles inverted", `<plan><function name="f" retval="-1"><cycles min="10" max="5"></cycles></function></plan>`, "below min"},
		{"nested leaf", `<plan><function name="f" retval="-1"><calls after="1"><pid is="1"></pid></calls></function></plan>`, "cannot contain nested"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Unmarshal([]byte(c.xml))
			if err == nil {
				t.Fatalf("expected validation error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestCompileErrorPosition(t *testing.T) {
	plan := &Plan{Triggers: []Trigger{
		{Function: "ok", Retval: "0"},
		{Function: "bad", Retval: "nope"},
	}}
	_, err := Compile(plan, nil)
	if err == nil {
		t.Fatal("expected compile error")
	}
	ce, ok := err.(*CompileError)
	if !ok {
		t.Fatalf("error type %T, want *CompileError", err)
	}
	if ce.Trigger != 1 || ce.Function != "bad" {
		t.Errorf("position = trigger %d function %q, want 1/bad", ce.Trigger, ce.Function)
	}
}

func TestTriggerCountIndex(t *testing.T) {
	plan := &Plan{Triggers: []Trigger{
		{Function: "read", Inject: 1, Retval: "-1"},
		{Function: "write", Inject: 1, Retval: "-1"},
		{Function: "read", Inject: 2, Retval: "-1"},
	}}
	cp := MustCompile(plan, nil)
	if cp.TriggerCount("read") != 2 || cp.TriggerCount("write") != 1 || cp.TriggerCount("open") != 0 {
		t.Errorf("index counts wrong: read=%d write=%d open=%d",
			cp.TriggerCount("read"), cp.TriggerCount("write"), cp.TriggerCount("open"))
	}
	// Scanned charges only the triggers guarding the called function.
	ev := cp.NewEvaluator()
	if d := ev.OnCall("write", nil); d.Scanned != 1 {
		t.Errorf("write scanned %d triggers, want 1", d.Scanned)
	}
	ev2 := cp.NewEvaluator()
	if d := ev2.OnCall("read", nil); d.Scanned != 1 {
		t.Errorf("read fired on first trigger, scanned %d, want 1", d.Scanned)
	}
	ev3 := cp.NewEvaluator()
	ev3.OnCall("read", nil)
	if d := ev3.OnCall("read", nil); d.Scanned != 2 {
		t.Errorf("read call 2 scanned %d, want 2", d.Scanned)
	}
}

// TestEvaluatorScanIsFlat states the per-call cost of trigger
// evaluation as an exact count. On an exhaustive-style plan (two
// triggers per function, none of which fires) every call scans only
// its own function's two triggers and allocates nothing, whether the
// plan names 50 functions or 500.
func TestEvaluatorScanIsFlat(t *testing.T) {
	for _, nfns := range []int{50, 500} {
		plan := &Plan{}
		fns := make([]string, nfns)
		for i := range fns {
			fns[i] = fmt.Sprintf("fn%04d", i)
			for c := int32(0); c < 2; c++ {
				plan.Triggers = append(plan.Triggers, Trigger{
					Function: fns[i], Inject: 1_000_000_000 + c, Retval: "-1", Errno: "EIO",
				})
			}
		}
		ev := MustCompile(plan, nil).NewEvaluator()
		callAll := func() {
			for _, fn := range fns {
				if d := ev.OnCallAt(fn, nil, 0); d.Inject || d.Scanned != 2 {
					t.Fatalf("%d functions: %s: inject=%v scanned=%d, want no fault and 2 scanned",
						nfns, fn, d.Inject, d.Scanned)
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, callAll); allocs != 0 {
			t.Errorf("%d functions: %.1f allocations per pass over the plan, want 0", nfns, allocs)
		}
	}
}

func TestLint(t *testing.T) {
	plan := &Plan{Triggers: []Trigger{
		{Function: "read", Probability: 10, Random: true},
		{Function: "write", Retval: "-1", Conds: []Cond{AfterFault("malloc")}},
	}}
	warns := Lint(plan, nil)
	if len(warns) != 4 {
		t.Fatalf("warnings = %v, want 4", warns)
	}
	if !strings.Contains(warns[0], "no profile supplies error codes") {
		t.Errorf("warns[0] = %q", warns[0])
	}
	if !strings.Contains(warns[1], `no trigger targets "malloc"`) {
		t.Errorf("warns[1] = %q", warns[1])
	}
	// Probability and after-fault both rule out a shared prefix, one
	// warning per condition kind; such a run starts from its anchor rung.
	if !strings.Contains(warns[2], "probability condition makes the plan non-memoizable") ||
		!strings.Contains(warns[2], "from the latest rung before its functions' first call") {
		t.Errorf("warns[2] = %q", warns[2])
	}
	if !strings.Contains(warns[3], "after-fault condition makes the plan non-memoizable") {
		t.Errorf("warns[3] = %q", warns[3])
	}
	// With a covering profile and a malloc trigger, only the
	// memoizability warnings remain.
	plan2 := &Plan{Triggers: []Trigger{
		{Function: "read", Probability: 10, Random: true},
		{Function: "malloc", Inject: 1, Retval: "0"},
		{Function: "write", Retval: "-1", Conds: []Cond{AfterFault("malloc")}},
	}}
	warns2 := Lint(plan2, demoSet())
	if len(warns2) != 2 {
		t.Fatalf("warnings = %v, want 2", warns2)
	}
	for _, w := range warns2 {
		if !strings.Contains(w, "non-memoizable") {
			t.Errorf("unexpected warning: %q", w)
		}
	}
	// A deterministic single-function plan lints clean.
	plan3 := &Plan{Triggers: []Trigger{
		{Function: "malloc", Inject: 2, Retval: "0", Once: true},
	}}
	if warns := Lint(plan3, demoSet()); len(warns) != 0 {
		t.Errorf("unexpected warnings: %v", warns)
	}
}
