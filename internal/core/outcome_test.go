package core_test

import (
	"testing"

	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/vm"
)

// TestClassifyOutcomes drives the classifier through all five §2 outcomes
// with synthetic reports, including both hang flavours (deadlock and
// exhausted cycle budget both surface as Report.Deadlocked).
func TestClassifyOutcomes(t *testing.T) {
	inj := []controller.InjectionRecord{{Function: "open", CallCount: 1}}
	cases := []struct {
		name     string
		rep      core.Report
		baseline int32
		want     core.Outcome
	}{
		{
			name: "not-triggered: no injections, whatever the exit",
			rep:  core.Report{Status: vm.ExitStatus{Code: 0}},
			want: core.OutcomeNotTriggered,
		},
		{
			name: "not-triggered wins even over a signal death",
			rep:  core.Report{Status: vm.ExitStatus{Signal: vm.SigSEGV}},
			want: core.OutcomeNotTriggered,
		},
		{
			name: "crash: injected and died on SIGSEGV",
			rep:  core.Report{Injections: inj, Status: vm.ExitStatus{Signal: vm.SigSEGV}},
			want: core.OutcomeCrash,
		},
		{
			name: "crash: injected and died on SIGABRT",
			rep:  core.Report{Injections: inj, Status: vm.ExitStatus{Signal: vm.SigABRT}},
			want: core.OutcomeCrash,
		},
		{
			name: "crash wins over deadlock when both are set",
			rep: core.Report{Injections: inj, Deadlocked: true,
				Status: vm.ExitStatus{Signal: vm.SigSEGV}},
			want: core.OutcomeCrash,
		},
		{
			name: "hang: injected and wedged (deadlock or cycle budget)",
			rep:  core.Report{Injections: inj, Deadlocked: true},
			want: core.OutcomeHang,
		},
		{
			name:     "handled: injected, exited with the baseline code",
			rep:      core.Report{Injections: inj, Status: vm.ExitStatus{Code: 4}},
			baseline: 4,
			want:     core.OutcomeHandled,
		},
		{
			name:     "error-exit: injected, exited with a different code",
			rep:      core.Report{Injections: inj, Status: vm.ExitStatus{Code: 3}},
			baseline: 0,
			want:     core.OutcomeErrorExit,
		},
		{
			name:     "error-exit: nonzero baseline, zero exit",
			rep:      core.Report{Injections: inj, Status: vm.ExitStatus{Code: 0}},
			baseline: 5,
			want:     core.OutcomeErrorExit,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := tc.rep
			if got := core.Classify(&rep, tc.baseline); got != tc.want {
				t.Errorf("Classify(%+v, %d) = %s, want %s", tc.rep, tc.baseline, got, tc.want)
			}
		})
	}
}

// TestSweepBudgetHang exercises the cycle-budget hang path end to end: an
// injected read failure traps the program in a busy-wait retry loop, the
// per-run budget expires, and the sweep reports a hang.
func TestSweepBudgetHang(t *testing.T) {
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int read(int fd, byte *buf, int n);
extern tls int errno;
int main(void) {
  int fd;
  int n;
  byte buf[8];
  fd = open("/data", 0, 0);
  n = read(fd, buf, 7);
  while (n < 0) { n = n - 1; }     // BUG: busy-wait that never recovers
  return 0;
}`, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			{Name: "read", ErrorCodes: []profile.ErrorCode{{
				Retval: -1,
				SideEffects: []profile.SideEffect{{
					Type: profile.SideEffectTLS, Module: libc.Name, Value: 5,
				}},
			}}},
		},
	}}
	cfg := core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
		Files:      map[string][]byte{"/data": []byte("d")},
	}
	// A small budget keeps the test fast; the baseline completes within
	// it, the injected run spins until it expires.
	res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 2_000_000, core.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || res.Entries[0].Outcome != core.OutcomeHang {
		t.Fatalf("entries = %+v, want one hang", res.Entries)
	}
	seq, err := core.RunExperiments(cfg, core.PlanExperiments(set), 2_000_000, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Render() != res.Render() {
		t.Errorf("hang report differs between sequential and parallel:\n%s\nvs\n%s",
			seq.Render(), res.Render())
	}
}
