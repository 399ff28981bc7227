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

// sweepApp has one handled fault path (open: falls back), one unhandled
// crash (malloc result dereferenced blindly), and a function it never
// calls (write), so the sweep must produce handled, crash and
// not-triggered rows.
const sweepApp = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int write(int fd, byte *buf, int n);
extern byte *malloc(int n);
extern tls int errno;
int main(void) {
  int fd;
  byte *p;
  fd = open("/data", 0, 0);
  if (fd >= 0) { close(fd); }      // tolerate open failure
  p = malloc(16);
  p[0] = 'x';                      // BUG: unchecked allocation
  return 0;
}
`

func sweepSet(t *testing.T) (profile.Set, *obj.File, *obj.File) {
	t.Helper()
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", sweepApp, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	// A focused hand-built profile keeps the sweep small and readable.
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			{Name: "open", ErrorCodes: []profile.ErrorCode{{
				Retval: -1,
				SideEffects: []profile.SideEffect{{
					Type: profile.SideEffectTLS, Module: libc.Name, Value: 13,
				}},
			}}},
			{Name: "malloc", ErrorCodes: []profile.ErrorCode{{
				Retval: 0,
				SideEffects: []profile.SideEffect{{
					Type: profile.SideEffectTLS, Module: libc.Name, Value: 12,
				}},
			}}},
			{Name: "write", ErrorCodes: []profile.ErrorCode{{Retval: -1}}},
		},
	}}
	return set, lc, app
}

func TestSweepClassifiesOutcomes(t *testing.T) {
	set, lc, app := sweepSet(t)
	res, err := core.RunExperiments(core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
		Files:      map[string][]byte{"/data": []byte("d")},
	}, core.PlanExperiments(set), 0, core.SweepOptions{Workers: 1})
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
	if got["open"] != core.OutcomeHandled {
		t.Errorf("open fault outcome = %s, want handled", got["open"])
	}
	if got["malloc"] != core.OutcomeCrash {
		t.Errorf("malloc fault outcome = %s, want crash (unchecked allocation)", got["malloc"])
	}
	if got["write"] != core.OutcomeNotTriggered {
		t.Errorf("write fault outcome = %s, want not-triggered", got["write"])
	}
	sum := res.Summary()
	if sum[core.OutcomeCrash] != 1 || sum[core.OutcomeHandled] != 1 || sum[core.OutcomeNotTriggered] != 1 {
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
