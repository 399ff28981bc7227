package core_test

import (
	"strings"
	"sync"
	"testing"

	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
)

// faultApp checks every syscall result and exits distinctly on each
// failure, so the degradation matrix produces clean classifications:
// a stalled call hangs, a full disk turns write/open into error exits,
// and fd pressure armed at write never binds (no later allocation).
const faultApp = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int write(int fd, byte *buf, int n);
extern tls int errno;
int main(void) {
  int fd;
  int i;
  fd = open("/out", 65, 0);
  if (fd < 0) { return 3; }
  i = 0;
  while (i < 4) {
    if (write(fd, "abcdefgh", 8) < 8) { close(fd); return 4; }
    i = i + 1;
  }
  close(fd);
  return 0;
}
`

// faultTarget is faultApp with an open/write profile.
func faultTarget(t testing.TB) (core.CampaignConfig, profile.Set) {
	t.Helper()
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", faultApp, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			{Name: "open", ErrorCodes: []profile.ErrorCode{{Retval: -1}}},
			{Name: "write", ErrorCodes: []profile.ErrorCode{{Retval: -1}}},
		},
	}}
	return core.CampaignConfig{Programs: []*obj.File{lc, app}, Executable: "app"}, set
}

func TestDegradationSweepOutcomes(t *testing.T) {
	cfg, set := faultTarget(t)
	exps := core.DegradationExperiments(set)
	if len(exps) != 6 {
		t.Fatalf("experiments = %d, want 6 (2 functions x 3 models)", len(exps))
	}

	var mu sync.Mutex
	reports := map[string]*core.Report{}
	res, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: 1,
		OnResult: func(exp *core.Experiment, _ core.SweepEntry, rep *core.Report) {
			mu.Lock()
			reports[exp.Function+"/"+exp.Fault] = rep
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline != 0 {
		t.Fatalf("baseline = %d", res.Baseline)
	}

	got := map[string]core.Outcome{}
	for _, e := range res.Entries {
		got[e.Function+"/"+e.Fault] = e.Outcome
	}
	want := map[string]core.Outcome{
		// A call stalled past the budget never returns: hang.
		"open/delay=200000000":  core.OutcomeHang,
		"write/delay=200000000": core.OutcomeHang,
		// Full disk: the creating open (and the first write) fail with
		// ENOSPC, which the app detects and exits on.
		"open/exhaust=disk:after=0":  core.OutcomeErrorExit,
		"write/exhaust=disk:after=0": core.OutcomeErrorExit,
		// fd saturation at open fails that open's own allocation; armed
		// at write it never binds (the app allocates no more fds), so
		// the run completes exactly like the baseline.
		"open/exhaust=fds:slots=0":  core.OutcomeErrorExit,
		"write/exhaust=fds:slots=0": core.OutcomeHandled,
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s outcome = %s, want %s", key, got[key], w)
		}
	}

	// The report carries the kernel's final degradation state: tripped
	// where the exhaustion actually failed an operation, armed-but-
	// untripped where it never bound.
	if rep := reports["write/exhaust=disk:after=0"]; rep == nil {
		t.Error("no report for write disk exhaustion")
	} else if d := rep.Degradation; !d.DiskArmed || !d.DiskTripped {
		t.Errorf("disk degradation = %+v, want armed+tripped", d)
	}
	if rep := reports["write/exhaust=fds:slots=0"]; rep == nil {
		t.Error("no report for write fd pressure")
	} else if d := rep.Degradation; !d.FDsArmed || d.FDsTripped {
		t.Errorf("fds degradation = %+v, want armed, untripped", d)
	}
	if rep := reports["open/delay=200000000"]; rep == nil {
		t.Error("no report for open delay")
	} else {
		var delay uint64
		for _, inj := range rep.Injections {
			delay += inj.DelayCycles
		}
		if delay != core.DegradationDelayCycles {
			t.Errorf("recorded delay = %d, want %d", delay, core.DegradationDelayCycles)
		}
	}

	// Fault rows render their degradation label in place of a retval.
	report := res.Render()
	for _, wantStr := range []string{"exhaust=disk:after=0", "exhaust=fds:slots=0", "delay=200000000"} {
		if !strings.Contains(report, wantStr) {
			t.Errorf("report missing %q:\n%s", wantStr, report)
		}
	}
}

// TestDegradationSweepDeterminism: degradations mutate kernel state
// mid-run and ride memoized prefixes, so armed quotas and shrunk fd
// tables must restore bit-identically whichever worker runs them — for
// the degradation matrix alone and concatenated with the errno matrix,
// as `lfi sweep -faults all` runs it, where errno and degradation
// faultloads share memo groups.
func TestDegradationSweepDeterminism(t *testing.T) {
	cfg, set := faultTarget(t)
	checkSweepInvariant(t, cfg, core.DegradationExperiments(set), 0, draws{workers: 1, perm: 2, split: 3})
	checkSweepInvariant(t, cfg, append(core.PlanExperiments(set), core.DegradationExperiments(set)...), 0,
		draws{workers: 2, perm: 3, split: 5})
}
