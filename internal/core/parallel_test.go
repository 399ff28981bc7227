package core_test

import (
	"fmt"
	"strings"
	"testing"

	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/scenario"
)

// mixedApp exercises every interesting reaction: error-exit on open
// failure, handled read/close failures, a crash on unchecked malloc, and
// write is never called (not-triggered).
const mixedApp = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern int write(int fd, byte *buf, int n);
extern byte *malloc(int n);
extern tls int errno;
int main(void) {
  int fd;
  int n;
  byte buf[32];
  byte *p;
  fd = open("/data", 0, 0);
  if (fd < 0) { return 2; }        // detect: graceful error exit
  n = read(fd, buf, 31);
  if (n < 0) { n = 0; }            // tolerate: empty input
  close(fd);                       // tolerate: ignore close failure
  p = malloc(8);
  p[0] = 'x';                      // BUG: unchecked allocation
  return 0;
}
`

// mixedTarget builds the shared campaign config and a profile whose
// experiment matrix covers several outcomes and multiple error codes per
// function.
func mixedTarget(t testing.TB) (core.CampaignConfig, profile.Set) {
	t.Helper()
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", mixedApp, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	tls := func(errno int32) []profile.SideEffect {
		return []profile.SideEffect{{Type: profile.SideEffectTLS, Module: libc.Name, Value: errno}}
	}
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			{Name: "open", ErrorCodes: []profile.ErrorCode{{Retval: -1, SideEffects: tls(13)}}},
			{Name: "read", ErrorCodes: []profile.ErrorCode{
				{Retval: -1, SideEffects: tls(5)},
				{Retval: -1, SideEffects: tls(4)},
			}},
			{Name: "close", ErrorCodes: []profile.ErrorCode{{Retval: -1, SideEffects: tls(9)}}},
			{Name: "malloc", ErrorCodes: []profile.ErrorCode{{Retval: 0, SideEffects: tls(12)}}},
			{Name: "write", ErrorCodes: []profile.ErrorCode{{Retval: -1, SideEffects: tls(32)}}},
		},
	}}
	cfg := core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
		Files:      map[string][]byte{"/data": []byte("payload")},
	}
	return cfg, set
}

// TestSweepParallelDeterminism is the engine's core guarantee: any worker
// count renders the exact same report as the sequential sweep.
func TestSweepParallelDeterminism(t *testing.T) {
	cfg, set := mixedTarget(t)
	checkSweepInvariant(t, cfg, core.PlanExperiments(set), 0, draws{workers: 2, perm: 11, split: 1})
}

// TestSweepParallelDeterminismSeededRandom covers seeded random plans:
// random triggers draw from a stream seeded by Plan.Seed, so even
// randomised experiments must reproduce identically at every worker
// count. The plans are compiled per campaign, without profiles.
func TestSweepParallelDeterminismSeededRandom(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	for seed := int64(1); seed <= 5; seed++ {
		exps = append(exps, core.Experiment{
			Library:  libc.Name,
			Function: "read",
			Retval:   -1,
			Plan: &scenario.Plan{Seed: seed, Triggers: []scenario.Trigger{{
				Function: "read", Probability: 60, Random: true,
			}}},
		})
	}
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 8, perm: 12, split: 6})
}

// TestSweepParallelEarlyStop checks -max-crashes semantics: the sweep
// stops at the N-th crash in plan order, at every worker count.
func TestSweepParallelEarlyStop(t *testing.T) {
	cfg, set := mixedTarget(t)
	full, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
			core.SweepOptions{Workers: workers, MaxCrashes: 1})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n := res.Summary()[core.OutcomeCrash]; n != 1 {
			t.Fatalf("workers=%d: crashes = %d, want exactly 1", workers, n)
		}
		if len(res.Entries) >= len(full.Entries) {
			t.Fatalf("workers=%d: early stop did not truncate (%d entries)", workers, len(res.Entries))
		}
		if last := res.Entries[len(res.Entries)-1]; last.Outcome != core.OutcomeCrash {
			t.Fatalf("workers=%d: report must end at the stopping crash, got %s", workers, last.Outcome)
		}
		// The engine must not return while workers are still reading the
		// shared config: mutating it here races any straggler (caught by
		// the -race CI run).
		cfg.Files[fmt.Sprintf("/scratch-%d", workers)] = []byte("x")
	}
}

// TestSweepParallelProgress checks live reporting: updates arrive in plan
// order with a monotonically complete Done counter and a tally that ends
// equal to the report summary.
func TestSweepParallelProgress(t *testing.T) {
	cfg, set := mixedTarget(t)
	var updates []core.SweepProgress
	opts := core.SweepOptions{Workers: 4, Progress: func(p core.SweepProgress) {
		updates = append(updates, p)
	}}
	res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(updates) != len(res.Entries) {
		t.Fatalf("got %d updates for %d entries", len(updates), len(res.Entries))
	}
	for i, p := range updates {
		if p.Done != i+1 || p.Total != len(res.Entries) {
			t.Errorf("update %d: done/total = %d/%d", i, p.Done, p.Total)
		}
		if p.Entry != res.Entries[i] {
			t.Errorf("update %d out of plan order: %+v != %+v", i, p.Entry, res.Entries[i])
		}
	}
	final := updates[len(updates)-1].Tally
	sum := res.Summary()
	if len(final) != len(sum) {
		t.Fatalf("final tally %v != summary %v", final, sum)
	}
	for k, v := range sum {
		if final[k] != v {
			t.Errorf("tally[%s] = %d, want %d", k, final[k], v)
		}
	}
	if s := updates[0].String(); !strings.Contains(s, fmt.Sprintf("/%d]", len(res.Entries))) {
		t.Errorf("progress line malformed: %q", s)
	}
}

// TestSweepEarlyStopBeatsLaterError: when the crash threshold is reached
// at a plan index before a broken experiment, every worker count must
// return the truncated report successfully — a plan-order-later error
// completing first on another worker must not preempt the early stop.
func TestSweepEarlyStopBeatsLaterError(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	crashAt := -1
	for i, e := range exps {
		if e.Function == "malloc" {
			crashAt = i
			break
		}
	}
	if crashAt < 0 {
		t.Fatal("no malloc experiment in the plan")
	}
	exps = append(exps, core.Experiment{
		Library: libc.Name, Function: "open", Retval: -1,
		Plan: &scenario.Plan{}, // rejected by the controller
	})
	for _, workers := range []int{1, 4, 8} {
		res, err := core.RunExperiments(cfg, exps, 0,
			core.SweepOptions{Workers: workers, MaxCrashes: 1})
		if err != nil {
			t.Fatalf("workers=%d: early stop should win over the later error, got %v", workers, err)
		}
		if len(res.Entries) != crashAt+1 {
			t.Errorf("workers=%d: entries = %d, want %d", workers, len(res.Entries), crashAt+1)
		}
	}
}

// TestSweepParallelPropagatesError: a failing experiment (here: a plan
// with no triggers, which the controller rejects) must abort the whole
// sweep with that error at any worker count.
func TestSweepParallelPropagatesError(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	exps = append(exps[:2:2], core.Experiment{
		Library: libc.Name, Function: "open", Retval: -1,
		Plan: &scenario.Plan{},
	})
	for _, workers := range []int{1, 4} {
		if _, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: workers}); err == nil {
			t.Errorf("workers=%d: expected error from empty plan", workers)
		}
	}
}
