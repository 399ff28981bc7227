package core_test

import (
	"errors"
	"testing"

	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/scenario"
)

const appSrc = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern byte *malloc(int n);
extern tls int errno;
int main(void) {
  int fd;
  byte *p;
  fd = open("/data", 0, 0);
  if (fd < 0) { return 10 + errno; }
  close(fd);
  p = malloc(32);
  if (p == 0) { return 70; }
  return 0;
}
`

func buildWorld(t *testing.T) (*obj.File, *obj.File) {
	t.Helper()
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", appSrc, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	return lc, app
}

func TestProfileApplicationWalk(t *testing.T) {
	lc, app := buildWorld(t)
	l := core.New(core.Options{Heuristics: true})
	if err := l.AddKernelImage(); err != nil {
		t.Fatal(err)
	}
	if err := l.AddLibrary(lc); err != nil {
		t.Fatal(err)
	}
	if err := l.AddLibrary(app); err != nil {
		t.Fatal(err)
	}
	set, err := l.ProfileApplication("app")
	if err != nil {
		t.Fatal(err)
	}
	p, ok := set[libc.Name]
	if !ok {
		t.Fatal("libc not profiled via needed-walk")
	}
	if _, ok := p.Lookup("open"); !ok {
		t.Error("open missing from profile")
	}
	if l.Stats().FunctionsAnalyzed == 0 {
		t.Error("stats not recorded")
	}
}

func TestCampaignCleanRun(t *testing.T) {
	lc, app := buildWorld(t)
	c, err := core.NewCampaign(core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
		Files:      map[string][]byte{"/data": []byte("x")},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status.Code != 0 || rep.Status.Signal != 0 || rep.Deadlocked {
		t.Errorf("report = %+v", rep)
	}
	if len(rep.Injections) != 0 || rep.ReplayPlan != nil {
		t.Error("clean run should have no injection artifacts")
	}
	if rep.Cycles == 0 {
		t.Error("cycles not accounted")
	}
}

func TestCampaignWithInjection(t *testing.T) {
	lc, app := buildWorld(t)
	l := core.New(core.Options{Heuristics: true})
	if err := l.AddKernelImage(); err != nil {
		t.Fatal(err)
	}
	if err := l.AddLibrary(lc); err != nil {
		t.Fatal(err)
	}
	if err := l.AddLibrary(app); err != nil {
		t.Fatal(err)
	}
	set, err := l.ProfileApplication("app")
	if err != nil {
		t.Fatal(err)
	}
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "open", Inject: 1, Retval: "-1", Errno: "EACCES",
	}}}
	c, err := core.NewCampaign(core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
		Profiles:   set,
		Plan:       plan,
		Files:      map[string][]byte{"/data": []byte("x")},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// 10 + EACCES(13) = 23.
	if rep.Status.Code != 23 {
		t.Errorf("code = %d, want 23 (EACCES surfaced)", rep.Status.Code)
	}
	if len(rep.Injections) != 1 || rep.ReplayPlan == nil || len(rep.ReplayPlan.Triggers) != 1 {
		t.Errorf("injections = %+v", rep.Injections)
	}

	// Replaying the generated plan reproduces the exit code.
	c2, err := core.NewCampaign(core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
		Profiles:   set,
		Plan:       rep.ReplayPlan,
		Files:      map[string][]byte{"/data": []byte("x")},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := c2.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Status != rep.Status {
		t.Errorf("replay status %+v != original %+v", rep2.Status, rep.Status)
	}
}

func TestCampaignPassThroughMode(t *testing.T) {
	lc, app := buildWorld(t)
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "open", Inject: 1, Retval: "-1", Errno: "EIO",
	}}}
	c, err := core.NewCampaign(core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
		Plan:       plan,
		Files:      map[string][]byte{"/data": []byte("x")},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Controller().PassThrough = true
	rep, err := c.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Trigger evaluated and logged, but the call went through.
	if rep.Status.Code != 0 {
		t.Errorf("pass-through run code = %d", rep.Status.Code)
	}
	if len(rep.Injections) != 1 || !rep.Injections[0].CallOrig {
		t.Errorf("injections = %+v", rep.Injections)
	}
}

func TestCampaignErrors(t *testing.T) {
	lc, _ := buildWorld(t)
	if _, err := core.NewCampaign(core.CampaignConfig{
		Programs:   []*obj.File{lc},
		Executable: "missing",
	}); err == nil {
		t.Error("spawn of unknown executable must fail")
	}
	if _, err := core.NewCampaign(core.CampaignConfig{
		Programs:   []*obj.File{lc},
		Executable: "app",
		Plan:       &scenario.Plan{}, // no triggers
	}); !errors.Is(err, controller.ErrNoTriggers) {
		t.Errorf("empty plan: err = %v, want %v", err, controller.ErrNoTriggers)
	}
}
