package core_test

import (
	"strings"
	"testing"

	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
)

func TestSweepClassifiesOutcomes(t *testing.T) {
	cfg, set := mixedTarget(t)
	res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline != 0 {
		t.Fatalf("baseline = %d", res.Baseline)
	}
	got := map[string]core.Outcome{}
	for _, e := range res.Entries {
		got[e.Function] = e.Outcome
	}
	for fn, want := range map[string]core.Outcome{
		"open":   core.OutcomeErrorExit,    // detected: graceful error exit
		"read":   core.OutcomeHandled,      // tolerated: empty input
		"close":  core.OutcomeHandled,      // tolerated: failure ignored
		"malloc": core.OutcomeCrash,        // unchecked allocation
		"write":  core.OutcomeNotTriggered, // never called
	} {
		if got[fn] != want {
			t.Errorf("%s fault outcome = %s, want %s", fn, got[fn], want)
		}
	}
	sum := res.Summary()
	if sum[core.OutcomeCrash] != 1 || sum[core.OutcomeErrorExit] != 1 || sum[core.OutcomeHandled] != 3 || sum[core.OutcomeNotTriggered] != 1 {
		t.Errorf("summary = %v", sum)
	}
	report := res.Render()
	for _, want := range []string{"robustness sweep", "malloc -> 0", "crash", "errno=ENOMEM"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestSweepErrorExitClassification(t *testing.T) {
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern tls int errno;
int main(void) {
  if (open("/data", 0, 0) < 0) { return 3; }  // graceful error exit
  return 0;
}`, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			{Name: "open", ErrorCodes: []profile.ErrorCode{{Retval: -1}}},
		},
	}}
	res, err := core.RunExperiments(core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
		Files:      map[string][]byte{"/data": []byte("d")},
	}, core.PlanExperiments(set), 0, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 1 || res.Entries[0].Outcome != core.OutcomeErrorExit {
		t.Errorf("entries = %+v", res.Entries)
	}
	if res.Entries[0].ExitCode != 3 {
		t.Errorf("exit = %d", res.Entries[0].ExitCode)
	}
}

func TestSweepRejectsUnhealthyBaseline(t *testing.T) {
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", `
needs "libc.so";
int main(void) {
  int *p;
  p = 4;
  return *p;     // baseline itself crashes
}`, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.RunExperiments(core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
	}, core.PlanExperiments(profile.Set{}), 0, core.SweepOptions{Workers: 1})
	if err == nil {
		t.Error("sweep must refuse a crashing baseline")
	}
}
