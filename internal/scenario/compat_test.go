package scenario_test

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"lfi/internal/profile"
	"lfi/internal/scenario"
)

// legacyEvaluator replicates, verbatim, the pre-compile-engine trigger
// evaluation: a full scan of the plan's trigger list per intercepted
// call, with fire-time retval/errno parsing. It is the oracle proving
// that every pre-refactor faultload evaluates to identical decisions
// under the compiled per-function index.
type legacyEvaluator struct {
	plan  *scenario.Plan
	set   profile.Set
	rng   *rand.Rand
	count map[string]int32
	fired map[int]bool
	pid   int
}

func newLegacyEvaluator(plan *scenario.Plan, set profile.Set) *legacyEvaluator {
	return &legacyEvaluator{
		plan:  plan,
		set:   set,
		rng:   rand.New(rand.NewSource(plan.Seed)),
		count: make(map[string]int32),
		fired: make(map[int]bool),
	}
}

func (e *legacyEvaluator) OnCall(fn string, stack []scenario.StackFrame) scenario.Decision {
	e.count[fn]++
	n := e.count[fn]
	scanned := 0
	for i := range e.plan.Triggers {
		t := &e.plan.Triggers[i]
		if t.Function != fn {
			continue
		}
		scanned++
		if t.Pid != 0 && t.Pid != e.pid {
			continue
		}
		if t.Once && e.fired[i] {
			continue
		}
		if t.Inject > 0 && t.Inject != n {
			continue
		}
		if t.Probability > 0 && e.rng.Float64()*100 >= t.Probability {
			continue
		}
		if !legacyMatchStack(t.Frames(), stack) {
			continue
		}
		e.fired[i] = true
		d := e.fire(i, t, fn, n)
		d.Scanned = scanned
		return d
	}
	if scanned == 0 {
		// The compiled engine keeps no count for a function no trigger
		// names, and reports the zero Decision for its calls.
		return scenario.Decision{}
	}
	return scenario.Decision{CallCount: n, Scanned: scanned}
}

func (e *legacyEvaluator) fire(idx int, t *scenario.Trigger, fn string, n int32) scenario.Decision {
	d := scenario.Decision{
		Inject:       true,
		Trigger:      idx,
		CallOriginal: t.CallOriginal,
		Modify:       t.Modify,
		CallCount:    n,
	}
	if t.Retval != "" {
		if v, err := strconv.ParseInt(t.Retval, 0, 32); err == nil {
			d.HasRetval = true
			d.Retval = int32(v)
		}
	}
	if v, ok := scenario.ParseErrno(t.Errno); ok {
		d.HasErrno = true
		d.Errno = v
	}
	if t.Random && e.set != nil {
		if _, pf, ok := e.set.FindFunction(fn); ok && len(pf.ErrorCodes) > 0 {
			ec := pf.ErrorCodes[e.rng.Intn(len(pf.ErrorCodes))]
			d.HasRetval = true
			d.Retval = ec.Retval
			if len(ec.SideEffects) > 0 {
				se := ec.SideEffects[e.rng.Intn(len(ec.SideEffects))]
				d.SideEffects = []profile.SideEffect{se}
				if se.Type == profile.SideEffectTLS {
					d.HasErrno = true
					d.Errno = se.Applied()
				}
			}
		}
	}
	if !d.HasRetval && len(d.Modify) == 0 && !t.CallOriginal && !t.Random {
		if !d.HasErrno {
			d.CallOriginal = true
		} else {
			d.HasRetval = true
			d.Retval = -1
		}
	}
	return d
}

func legacyMatchStack(want []string, got []scenario.StackFrame) bool {
	if len(want) == 0 {
		return true
	}
	if len(want) > len(got) {
		return false
	}
	for i, w := range want {
		f := got[i]
		if strings.HasPrefix(w, "0x") || strings.HasPrefix(w, "0X") {
			v, err := strconv.ParseUint(w[2:], 16, 32)
			if err != nil || uint32(v) != f.Addr {
				return false
			}
			continue
		}
		if w != f.Symbol {
			return false
		}
	}
	return true
}

// compatSet is a profile set with multiple error codes and side effects
// so random draws exercise the rng stream.
func compatSet() profile.Set {
	tls := func(v int32) profile.SideEffect {
		return profile.SideEffect{Type: profile.SideEffectTLS, Module: "libc.so", Value: v}
	}
	return profile.Set{
		"libc.so": &profile.Profile{
			Library: "libc.so",
			Functions: []profile.Function{
				{Name: "open", ErrorCodes: []profile.ErrorCode{
					{Retval: -1, SideEffects: []profile.SideEffect{tls(13), tls(2)}},
				}},
				{Name: "read", ErrorCodes: []profile.ErrorCode{
					{Retval: -1, SideEffects: []profile.SideEffect{tls(5)}},
					{Retval: -11},
				}},
				{Name: "write", ErrorCodes: []profile.ErrorCode{
					{Retval: -1, SideEffects: []profile.SideEffect{tls(28), tls(32), tls(5)}},
				}},
				{Name: "close", ErrorCodes: []profile.ErrorCode{
					{Retval: -1, SideEffects: []profile.SideEffect{tls(9)}},
				}},
				{Name: "malloc", ErrorCodes: []profile.ErrorCode{
					{Retval: 0, SideEffects: []profile.SideEffect{tls(12)}},
				}},
			},
		},
	}
}

// compatFixtures are pre-refactor faultloads: flat attributes only, the
// exact vocabulary the seed repo shipped.
var compatFixtures = map[string]string{
	"section4": `<plan>
  <function name="readdir" inject="5" retval="0" errno="EBADF" calloriginal="false">
    <stacktrace>
      <frame>0xb824490</frame>
      <frame>refresh_files</frame>
    </stacktrace>
  </function>
  <function name="read" inject="20" calloriginal="true">
    <modify argument="3" op="sub" value="10"></modify>
  </function>
</plan>`,
	"mixed": `<plan seed="9">
  <function name="open" inject="2" retval="-1" errno="EACCES" calloriginal="false"></function>
  <function name="read" probability="35" random="true" calloriginal="false"></function>
  <function name="read" inject="4" retval="-11" calloriginal="false"></function>
  <function name="write" probability="50" random="true" calloriginal="false" once="true"></function>
  <function name="close" retval="-1" errno="9" calloriginal="false" once="true"></function>
  <function name="malloc" errno="ENOMEM" calloriginal="false"></function>
</plan>`,
	"pids": `<plan>
  <function name="write" inject="1" retval="-1" errno="EPIPE" calloriginal="false" once="true" pid="2"></function>
  <function name="write" inject="3" retval="-1" calloriginal="false" pid="1"></function>
</plan>`,
	"stacks": `<plan>
  <function name="close" retval="-1" errno="EINTR" calloriginal="false">
    <stacktrace>
      <frame>close</frame>
      <frame>path_b</frame>
    </stacktrace>
  </function>
</plan>`,
}

// TestCompiledMatchesLegacyFixtures drives the legacy full-scan oracle
// and the compiled engine over identical call streams and demands
// decision-for-decision equality — including Scanned (the cycle-charge
// input) and the random draws.
func TestCompiledMatchesLegacyFixtures(t *testing.T) {
	set := compatSet()
	stacks := [][]scenario.StackFrame{
		nil,
		{{Addr: 0xb824490, Symbol: "readdir"}, {Addr: 0x1000, Symbol: "refresh_files"}},
		{{Addr: 0x10, Symbol: "close"}, {Addr: 0x20, Symbol: "path_b"}, {Addr: 0x30, Symbol: "main"}},
		{{Addr: 0x10, Symbol: "close"}, {Addr: 0x22, Symbol: "path_a"}},
		{{Addr: 0x40, Symbol: "write"}, {Addr: 0x50, Symbol: "flush"}},
	}
	fns := []string{"open", "read", "write", "close", "malloc", "readdir"}
	for name, blob := range compatFixtures {
		t.Run(name, func(t *testing.T) {
			plan, err := scenario.Unmarshal([]byte(blob))
			if err != nil {
				t.Fatalf("pre-refactor fixture rejected: %v", err)
			}
			// The fixture itself must still round-trip byte-identically.
			first, err := plan.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			plan2, err := scenario.Unmarshal(first)
			if err != nil {
				t.Fatal(err)
			}
			second, err := plan2.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if string(first) != string(second) {
				t.Fatalf("fixture does not round-trip:\n%s\nvs\n%s", first, second)
			}

			for pid := 1; pid <= 2; pid++ {
				legacy := newLegacyEvaluator(plan, set)
				legacy.pid = pid
				cp, err := scenario.Compile(plan, set)
				if err != nil {
					t.Fatalf("compile: %v", err)
				}
				ev := cp.NewEvaluator()
				ev.SetPID(pid)
				// A deterministic pseudo-random call stream, same for
				// both engines.
				drive := rand.New(rand.NewSource(int64(pid) * 77))
				for call := 0; call < 400; call++ {
					fn := fns[drive.Intn(len(fns))]
					stack := stacks[drive.Intn(len(stacks))]
					want := legacy.OnCall(fn, stack)
					got := ev.OnCall(fn, stack)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("pid %d call %d (%s): decisions diverge\nlegacy:   %+v\ncompiled: %+v",
							pid, call, fn, want, got)
					}
				}
			}
		})
	}
}

// TestCompiledMatchesLegacyGenerated covers the generated faultloads:
// exhaustive and seeded-random plans over the profile set.
func TestCompiledMatchesLegacyGenerated(t *testing.T) {
	set := compatSet()
	plans := map[string]*scenario.Plan{
		"exhaustive": scenario.Exhaustive(set),
		"random10":   scenario.Random(set, 10, 3),
		"random80":   scenario.Random(set, 80, 41),
		"fileio":     scenario.LibcFileIO(set, 25, 7),
	}
	fns := []string{"open", "read", "write", "close", "malloc"}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			legacy := newLegacyEvaluator(plan, set)
			legacy.pid = 1
			ev := scenario.MustCompile(plan, set).NewEvaluator()
			ev.SetPID(1)
			for call := 0; call < 600; call++ {
				fn := fns[call%len(fns)]
				want := legacy.OnCall(fn, nil)
				got := ev.OnCall(fn, nil)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("call %d (%s): decisions diverge\nlegacy:   %+v\ncompiled: %+v",
						call, fn, want, got)
				}
			}
		})
	}
}
