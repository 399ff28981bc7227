package core_test

import (
	"testing"

	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// wideTarget is mixedTarget with an exhaustive-errno profile: several
// error codes per function, so every (function, call-site) cell forms a
// shared-prefix group the memoizer can amortise — the paper's
// functions × errnos matrix shape.
func wideTarget(t testing.TB) (core.CampaignConfig, profile.Set) {
	t.Helper()
	cfg, _ := mixedTarget(t)
	tls := func(errno int32) []profile.SideEffect {
		return []profile.SideEffect{{Type: profile.SideEffectTLS, Module: libc.Name, Value: errno}}
	}
	fn := func(name string, retval int32, errnos ...int32) profile.Function {
		f := profile.Function{Name: name}
		for _, e := range errnos {
			f.ErrorCodes = append(f.ErrorCodes, profile.ErrorCode{Retval: retval, SideEffects: tls(e)})
		}
		return f
	}
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			fn("open", -1, 13, 2, 24),
			fn("read", -1, 5, 4, 11),
			fn("close", -1, 9, 5, 4),
			fn("malloc", 0, 12, 11, 22),
			fn("write", -1, 32, 5, 28), // never called: a pruned group
		},
	}}
	return cfg, set
}

// TestSweepMemoIdentical is the determinism bar of prefix memoization:
// on an exhaustive errno matrix the memoized sweep renders like the
// oracle at every worker count and with no rung at all.
func TestSweepMemoIdentical(t *testing.T) {
	cfg, set := wideTarget(t)
	checkSweepInvariant(t, cfg, core.PlanExperiments(set), 0, draws{workers: 1, perm: 7, split: 8})
}

// TestSweepMemoStats pins the bookkeeping: 5 functions × 3 errnos give
// 5 groups of 3, but the never-called write group is pruned before it
// reaches the memo ladder, leaving 4 groups. Every group sits at its
// function's first call, so the baseline mints one rung per group and
// every member starts from its own function's rung: the 4 reached
// sites restore 3 members each.
func TestSweepMemoStats(t *testing.T) {
	cfg, set := wideTarget(t)
	res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
		core.SweepOptions{Workers: 4, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Memo
	if m == nil {
		t.Fatal("no memo stats")
	}
	if m.Groups != 4 || m.MaxGroup != 3 {
		t.Errorf("groups=%d max=%d, want 4 groups of 3 (write pruned)", m.Groups, m.MaxGroup)
	}
	if m.Rungs != 4 || m.Prefixes != 0 || m.Anchored != 0 {
		t.Errorf("rungs=%d prefixes=%d anchored=%d, want 4 rungs (one per called function), no prefix run and no run from another function's rung",
			m.Rungs, m.Prefixes, m.Anchored)
	}
	if m.Restored != 12 {
		t.Errorf("restored = %d, want 12 (4 reached sites x 3 members)", m.Restored)
	}
	if m.Pruned != 3 {
		t.Errorf("pruned = %d, want 3 (the write group)", m.Pruned)
	}
	if m.Unmemoizable != 0 {
		t.Errorf("unmemoizable=%d, want 0", m.Unmemoizable)
	}
	if m.PeakBytes <= 0 {
		t.Errorf("peak bytes = %d, want > 0", m.PeakBytes)
	}
}

// TestSweepMemoLaterSite exercises a first-fire site the baseline never
// reaches: the app calls read once, so the errno variants firing on
// read's second call get no rung and run whole from read's anchor,
// while the inject=1 variants start from read's first-call rung.
func TestSweepMemoLaterSite(t *testing.T) {
	cfg, set := wideTarget(t)
	var exps []core.Experiment
	for _, inject := range []int32{1, 2} {
		for _, errno := range []string{"5", "4", "11"} {
			plan := &scenario.Plan{Triggers: []scenario.Trigger{{
				Function: "read", Inject: inject, Retval: "-1", Errno: errno, Once: true,
			}}}
			exps = append(exps, core.Experiment{
				Library: libc.Name, Function: "read", Retval: -1,
				Plan:     plan,
				Compiled: scenario.MustCompile(plan, set),
			})
		}
	}
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 4, perm: 8, split: 3})
	got, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 4, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if m := got.Memo; m.Rungs != 1 || m.Restored != 3 || m.Anchored != 3 {
		t.Errorf("stats: %+v, want 1 rung and 3 restored (inject=1), 3 anchored (inject=2)", *m)
	}
}

// TestSweepMemoUnmemoizable: plans with probability conditions have no
// deterministic first-fire site; the sweep falls back per experiment
// (seeded streams never cross a memo boundary because no memo happens).
func TestSweepMemoUnmemoizable(t *testing.T) {
	cfg, set := wideTarget(t)
	cfg.Profiles = set
	var exps []core.Experiment
	for seed := int64(1); seed <= 4; seed++ {
		plan := &scenario.Plan{Seed: seed, Triggers: []scenario.Trigger{{
			Function: "read", Probability: 60, Random: true,
		}}}
		exps = append(exps, core.Experiment{
			Library: libc.Name, Function: "read", Retval: -1,
			Plan:     plan,
			Compiled: scenario.MustCompile(plan, set),
		})
	}
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 4, perm: 9, split: 2})
	got, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 4, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Memo.Unmemoizable != 4 || got.Memo.Restored != 0 {
		t.Errorf("stats: %+v, want 4 unmemoizable and 0 restored", *got.Memo)
	}
}

// TestSweepMemoBudget: a one-byte budget cannot hold any rung, so the
// baseline mints none and every group member runs whole from the entry
// (the harness's "memo-budget=1" leg checks the report).
func TestSweepMemoBudget(t *testing.T) {
	cfg, set := wideTarget(t)
	for _, workers := range []int{1, 4} {
		got, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
			core.SweepOptions{Workers: workers, Snapshot: true, MemoBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		if m := got.Memo; m.Rungs != 0 || m.Restored != 0 || m.Anchored != 0 || m.PeakBytes != 0 {
			t.Errorf("workers=%d: stats: %+v, want no rung and no run from one under a 1-byte budget", workers, *m)
		}
	}
}

// TestSweepMemoMaxCrashes: the early-stop threshold must truncate the
// memoized sweep at the same plan-order entry as the oracle.
func TestSweepMemoMaxCrashes(t *testing.T) {
	cfg, set := wideTarget(t)
	checkSweepInvariant(t, cfg, core.PlanExperiments(set), 0, draws{maxCrashes: 2, workers: 4, split: 4})
}

// TestSweepProgressServed is the satellite contract for SweepProgress:
// entries satisfied without executing a run — resume cache hits and
// pruned experiments — land in a distinct Served tally, and every
// progress update reports the running count.
func TestSweepProgressServed(t *testing.T) {
	cfg, set := wideTarget(t)
	exps := core.PlanExperiments(set)

	// Phase 1: record the full sweep.
	recorded := make(map[string]core.SweepEntry)
	full, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: 1, Snapshot: true,
		OnResult: func(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) {
			recorded[exp.Key()] = entry
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume with half the keys served from the recording. The
	// never-called write experiments are pruned on top of the Skip hits.
	cached := make(map[string]bool)
	for i, exp := range exps {
		if i%2 == 0 {
			cached[exp.Key()] = true
		}
	}
	var (
		last     core.SweepProgress
		monotone = true
		updates  int
	)
	res, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: 1, Snapshot: true,
		Skip: func(exp *core.Experiment) (core.SweepEntry, bool) {
			if cached[exp.Key()] {
				return recorded[exp.Key()], true
			}
			return core.SweepEntry{}, false
		},
		Progress: func(p core.SweepProgress) {
			updates++
			if p.Served < last.Served || p.Done != updates {
				monotone = false
			}
			last = p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != full.Render() {
		t.Errorf("resumed report differs from full sweep")
	}
	if !monotone {
		t.Error("Served tally not monotone or Done out of order")
	}
	if last.Done != len(exps) {
		t.Errorf("final Done = %d, want %d", last.Done, len(exps))
	}
	skipServed := len(cached)
	// Pruning only applies to write experiments not already skipped.
	pruned := 0
	for i, exp := range exps {
		if i%2 != 0 && exp.Function == "write" {
			pruned++
		}
	}
	if want := skipServed + pruned; last.Served != want {
		t.Errorf("final Served = %d, want %d (%d skip + %d pruned)",
			last.Served, want, skipServed, pruned)
	}
	if last.Served == last.Done {
		t.Error("Served should not count executed experiments")
	}
}

// ladderApp reads /data twice, then spawns ladderKid, the only caller
// of malloc, and exits with the kid's status.
const ladderApp = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern int spawn(byte *prog, int fdin, int fdout);
extern int waitpid(int pid, int *status);
int main(void) {
  int fd;
  int n;
  int pid;
  int st;
  byte buf[8];
  fd = open("/data", 0, 0);
  if (fd < 0) { return 2; }
  n = read(fd, buf, 4);
  n = read(fd, buf, 4);
  if (n < 0) { return 3; }
  close(fd);
  pid = spawn("kid", 0, 1);
  if (pid < 0) { return 4; }
  st = 0;
  waitpid(pid, &st);
  return st;
}
`

const ladderKid = `
needs "libc.so";
extern byte *malloc(int n);
int main(void) {
  byte *p;
  p = malloc(8);
  p[0] = 'x';
  return 0;
}
`

// twoProgTarget is libc, an app and the kid program it spawns, with
// /data in the kernel and coverage on.
func twoProgTarget(t *testing.T, app, kid string) core.CampaignConfig {
	t.Helper()
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	progs := []*obj.File{lc}
	for name, src := range map[string]string{"app": app, "kid": kid} {
		f, err := minic.Compile(name, src, obj.Executable)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, f)
	}
	return core.CampaignConfig{
		Programs:   progs,
		Executable: "app",
		Files:      map[string][]byte{"/data": []byte("payload")},
		VM:         vm.Options{Coverage: true},
	}
}

// errnoExp is a one-trigger precompiled experiment faulting fn's
// inject-th call with retval and errno.
func errnoExp(fn string, inject int32, retval, errno string) core.Experiment {
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: fn, Inject: inject, Retval: retval, Errno: errno, Once: true,
	}}}
	return core.Experiment{
		Library: libc.Name, Function: fn, Retval: -1,
		Plan: plan, Compiled: scenario.MustCompile(plan, nil),
	}
}

// TestSweepMemoLadder is the memo ladder's harness input: call-1 groups
// the baseline mints rungs for (open and close in the parent, malloc
// first called in a spawned child), a call-2 group on read, which the
// guest calls before its site, so its rung's runs resume read's
// evaluator at one call, and a read singleton anchored on open's rung,
// all with coverage on. Every memo leg (no rungs under memo-budget=1
// included) must match the oracle record for record.
func TestSweepMemoLadder(t *testing.T) {
	cfg := twoProgTarget(t, ladderApp, ladderKid)
	errnos := map[string][]string{"open": {"13", "2", "24"}, "close": {"9", "5", "4"}, "malloc": {"12", "11", "22"}, "read": {"5", "4", "11"}}
	var exps []core.Experiment
	for _, fn := range []string{"open", "close", "malloc"} {
		retval := "-1"
		if fn == "malloc" {
			retval = "0"
		}
		for _, e := range errnos[fn] {
			exps = append(exps, errnoExp(fn, 1, retval, e))
		}
	}
	for _, e := range errnos["read"] {
		exps = append(exps, errnoExp("read", 2, "-1", e))
	}
	exps = append(exps, errnoExp("read", 1, "-1", "5"))
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 2, perm: 12, split: 5})

	res, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 2, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Memo
	if m.Rungs != 4 || m.Prefixes != 0 || m.Restored != 12 || m.Anchored != 1 || m.Singletons != 1 {
		t.Errorf("stats: %+v, want 4 rungs (open, read call 2, close, the kid's malloc), no prefix run, 12 restored, 1 anchored (the singleton, on open's rung), 1 singleton", *m)
	}
}

// anchorApp writes before it opens anything, reads /data twice, spawns
// anchorKid, whose malloc is the sweep's first, and only then closes
// and calls malloc itself.
const anchorApp = `
needs "libc.so";
extern int write(int fd, byte *buf, int n);
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern int spawn(byte *prog, int fdin, int fdout);
extern int waitpid(int pid, int *status);
extern byte *malloc(int n);
int main(void) {
  int fd;
  int n;
  int pid;
  int st;
  byte *p;
  byte buf[8];
  write(1, "go", 2);
  fd = open("/data", 0, 0);
  if (fd < 0) { return 2; }
  n = read(fd, buf, 4);
  n = read(fd, buf, 4);
  if (n < 0) { return 3; }
  pid = spawn("kid", 0, 1);
  if (pid < 0) { return 4; }
  st = 0;
  waitpid(pid, &st);
  close(fd);
  p = malloc(4);
  if (p == 0) { return 7; }
  return st;
}
`

const anchorKid = `
needs "libc.so";
extern byte *malloc(int n);
int main(void) {
  byte *p;
  p = malloc(8);
  if (p == 0) { return 5; }
  p[0] = 'x';
  return 0;
}
`

// TestSweepMemoAnchor is the harness input of the start rule: every
// experiment outside a group with a rung starts from the latest rung
// at which no process had called a function its faultload names. The
// baseline mints three rungs, at open's and close's first calls and at
// read's second. Its experiments are a write singleton called before
// the first rung (it starts from the entry); a read singleton and a
// read probability plan, anchored on open's rung; a read call-2 group
// on its own rung; and a malloc singleton whose first call is the kid's, before close's rung,
// though the parent calls malloc only after it — a check of the parent
// alone would anchor it on close's rung and miss the kid's call.
func TestSweepMemoAnchor(t *testing.T) {
	cfg := twoProgTarget(t, anchorApp, anchorKid)
	exps := []core.Experiment{errnoExp("write", 1, "-1", "5")}
	for _, e := range []string{"13", "2", "24"} {
		exps = append(exps, errnoExp("open", 1, "-1", e))
	}
	for _, e := range []string{"5", "4", "11"} {
		exps = append(exps, errnoExp("read", 2, "-1", e))
	}
	exps = append(exps, errnoExp("read", 1, "-1", "4"))
	prob := &scenario.Plan{Seed: 3, Triggers: []scenario.Trigger{{
		Function: "read", Probability: 50, Retval: "-1", Errno: "11",
	}}}
	exps = append(exps, core.Experiment{
		Library: libc.Name, Function: "read", Retval: -1,
		Plan: prob, Compiled: scenario.MustCompile(prob, nil),
	})
	for _, e := range []string{"9", "5", "4"} {
		exps = append(exps, errnoExp("close", 1, "-1", e))
	}
	exps = append(exps, errnoExp("malloc", 1, "0", "12"))
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 2, perm: 14, split: 6})

	res, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 2, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Memo
	if m.Rungs != 3 || m.Prefixes != 0 || m.Restored != 9 || m.Anchored != 3 ||
		m.Singletons != 3 || m.Unmemoizable != 1 || m.Pruned != 0 {
		t.Errorf("stats: %+v, want 3 rungs (open, read call 2, close), no prefix run, 9 restored, "+
			"3 anchored on open's rung (the read singleton, the probability plan, malloc), "+
			"3 singletons (write, read, malloc), 1 unmemoizable", *m)
	}
}

// callNApp calls getpid three times, then spawns callNKid, which calls
// it eight more times in its own process, and exits with the kid's
// status.
const callNApp = `
needs "libc.so";
extern int getpid(void);
extern int spawn(byte *prog, int fdin, int fdout);
extern int waitpid(int pid, int *status);
int main(void) {
  int i;
  int pid;
  int st;
  for (i = 0; i < 3; i = i + 1) {
    if (getpid() < 0) { return 2; }
  }
  pid = spawn("kid", 0, 1);
  if (pid < 0) { return 4; }
  st = 0;
  waitpid(pid, &st);
  return st;
}
`

const callNKid = `
needs "libc.so";
extern int getpid(void);
int main(void) {
  int i;
  for (i = 0; i < 8; i = i + 1) {
    if (getpid() < 0) { return 3 + i; }
  }
  return 0;
}
`

// TestSweepMemoCallN is the harness input of call-N rungs across
// processes: groups at getpid's third call, which the parent makes, and
// at its sixth, which only the kid reaches, after the parent's three
// calls and two of its own. The kid's first stop after the parent's
// rung comes at its third call, short of the site, so the climb
// re-arms at the stop it is frozen on; its sixth call mints the rung.
// Runs from that rung must resume the kid's evaluator at five calls and
// the parent's at three, and charge both their skipped trigger scans.
func TestSweepMemoCallN(t *testing.T) {
	cfg := twoProgTarget(t, callNApp, callNKid)
	var exps []core.Experiment
	for _, call := range []int32{3, 6} {
		for _, e := range []string{"5", "4", "11"} {
			exps = append(exps, errnoExp("getpid", call, "-1", e))
		}
	}
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 2, perm: 15, split: 4})

	res, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 2, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.Memo; m.Groups != 2 || m.Rungs != 2 || m.Restored != 6 || m.Anchored != 0 {
		t.Errorf("stats: %+v, want 2 groups, 2 rungs (getpid calls 3 and 6), 6 restored, none anchored", *m)
	}
}

// spinApp calls getpid a thousand times.
const spinApp = `
needs "libc.so";
extern int getpid(void);
int main(void) {
  int i;
  for (i = 0; i < 1000; i = i + 1) {
    if (getpid() < 0) { return 2; }
  }
  return 0;
}
`

// TestSweepMemoBudgetFallback is the harness input of the budget
// fallback. Two plans of 40 triggers each fire from getpid's 1000th
// call, so each earlier call costs their runs 80 cycles the baseline
// does not pay. The baseline reaches that call at 56,959 cycles and
// ends at 57,020; the plans' runs reach it at 136,879. Under a budget
// of 60,000 the baseline survives and mints the site's rung, but a run
// restored there starts past the budget: the plans' runs exhaust it
// near getpid's 440th call, so both must run from the entry instead.
func TestSweepMemoBudgetFallback(t *testing.T) {
	cfg := twoProgTarget(t, spinApp, callNKid)
	var exps []core.Experiment
	for _, e := range []string{"5", "4"} {
		plan := &scenario.Plan{}
		for i := int32(0); i < 40; i++ {
			plan.Triggers = append(plan.Triggers, scenario.Trigger{
				Function: "getpid", Inject: 1000 + i, Retval: "-1", Errno: e, Once: true,
			})
		}
		exps = append(exps, core.Experiment{
			Library: libc.Name, Function: "getpid", Retval: -1,
			Plan: plan, Compiled: scenario.MustCompile(plan, nil),
		})
	}
	const budget = 60_000
	checkSweepInvariant(t, cfg, exps, budget, draws{workers: 2, perm: 16, split: 1})

	for _, c := range []struct {
		budget   uint64
		restored int
	}{{0, 2}, {budget, 0}} {
		res, err := core.RunExperiments(cfg, exps, c.budget, core.SweepOptions{Workers: 2, Snapshot: true})
		if err != nil {
			t.Fatal(err)
		}
		if m := res.Memo; m.Rungs != 1 || m.Restored != c.restored {
			t.Errorf("budget %d: stats: %+v, want 1 rung and %d restored", c.budget, *m, c.restored)
		}
	}
}
