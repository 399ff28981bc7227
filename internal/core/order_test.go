package core_test

import (
	"testing"

	"lfi/internal/core"
)

// orderClasses is a handcrafted audit result for mixedTarget: malloc's
// call site ignores the return (the planted bug), close's return is
// dropped, the rest are checked; write has no call site (unknown).
var orderClasses = map[string]string{
	"malloc": "unchecked-clobbered",
	"close":  "unchecked-propagated",
	"open":   "checked",
	"read":   "checked",
}

func TestStaticOrderRanks(t *testing.T) {
	cfg, set := mixedTarget(t)
	_ = cfg
	exps := core.PlanExperiments(set)
	order := core.StaticOrder(exps, orderClasses)
	if len(order) != len(exps) {
		t.Fatalf("order has %d entries for %d experiments", len(order), len(exps))
	}
	// Expected rank sequence: malloc (clobbered), close (propagated),
	// write (unknown), then the checked open/read — ties in plan order.
	var fns []string
	for _, i := range order {
		fns = append(fns, exps[i].Function)
	}
	if fns[0] != "malloc" || fns[1] != "close" || fns[2] != "write" {
		t.Errorf("static order = %v, want malloc, close, write first", fns)
	}
	last := -1
	for _, i := range order {
		r := auditRankFor(exps[i].Function)
		if r < last {
			t.Fatalf("static order not monotone in rank: %v", fns)
		}
		last = r
	}
}

func auditRankFor(fn string) int {
	switch orderClasses[fn] {
	case "unchecked-clobbered":
		return 0
	case "unchecked-propagated":
		return 1
	case "stored":
		return 2
	case "checked":
		return 4
	}
	return 3
}

// TestExecOrderReportByteIdentical is the scheduler's determinism bar:
// a statically reordered full sweep renders the plan-order report under
// every executor configuration.
func TestExecOrderReportByteIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	checkSweepInvariant(t, cfg, exps, 0, draws{order: core.StaticOrder(exps, orderClasses), workers: 1, perm: 10, split: 3})
}

// TestExecOrderEarlyStop: with the audit fronting the crashing malloc
// experiment, -max-crashes=1 stops after a single run; the default plan
// order needs to wade through the alphabetically earlier experiments
// first.
func TestExecOrderEarlyStop(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	order := core.StaticOrder(exps, orderClasses)
	res, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: 1, MaxCrashes: 1, ExecOrder: order,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 {
		t.Fatalf("static-order early stop committed %d entries, want 1:\n%s",
			len(res.Entries), res.Render())
	}
	if e := res.Entries[0]; e.Function != "malloc" || e.Outcome != core.OutcomeCrash {
		t.Errorf("first committed entry = %+v, want the malloc crash", e)
	}
	def, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: 1, MaxCrashes: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Entries) <= len(res.Entries) {
		t.Errorf("default order found the crash in %d entries, static in %d — static should be strictly earlier here",
			len(def.Entries), len(res.Entries))
	}
}

func TestExecOrderRejectsNonPermutation(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	for _, bad := range [][]int{
		{0},                      // wrong length
		make([]int, len(exps)),   // all zeros: duplicate indices
		badIndexOrder(len(exps)), // out of range
	} {
		_, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
			Workers: 1, ExecOrder: bad,
		})
		if err == nil {
			t.Errorf("ExecOrder %v accepted, want rejection", bad)
		}
	}
}

func badIndexOrder(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	out[n-1] = n
	return out
}

// TestAnnotateAudit stamps experiments and leaves identity untouched.
func TestAnnotateAudit(t *testing.T) {
	_, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	before := make([]string, len(exps))
	for i := range exps {
		before[i] = exps[i].Key()
	}
	core.AnnotateAudit(exps, orderClasses)
	for i := range exps {
		if exps[i].Audit != orderClasses[exps[i].Function] {
			t.Errorf("%s annotated %q, want %q",
				exps[i].Function, exps[i].Audit, orderClasses[exps[i].Function])
		}
		if exps[i].Key() != before[i] {
			t.Errorf("annotation changed experiment key %q -> %q", before[i], exps[i].Key())
		}
	}
}
