package controller_test

import (
	"strings"
	"testing"

	"lfi/internal/controller"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/profiler"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// TestInterceptorsForMultipleLibrariesCoexist reproduces §6.4's setup:
// LFI simultaneously interposes on functions from several libraries
// (glibc + libapr + libaprutil in the paper). The mechanism is
// name-based, so stubs for different libraries live in one preloaded
// interceptor without interfering.
func TestInterceptorsForMultipleLibrariesCoexist(t *testing.T) {
	libA, err := minic.Compile("liba.so", `
int a_op(int x) {
  if (x < 0) { return -10; }
  return x + 1;
}`, obj.Library)
	if err != nil {
		t.Fatal(err)
	}
	libB, err := minic.Compile("libb.so", `
int b_op(int x) {
  if (x < 0) { return -20; }
  return x + 2;
}`, obj.Library)
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", `
needs "liba.so";
needs "libb.so";
extern int a_op(int x);
extern int b_op(int x);
int main(void) {
  int r;
  r = 0;
  if (a_op(1) == -10) { r = r + 1; }    // injected
  if (b_op(1) == -20) { r = r + 10; }   // injected
  if (a_op(1) == 2) { r = r + 100; }    // passes through
  if (b_op(1) == 3) { r = r + 1000; }   // passes through
  return r;
}`, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}

	// Profile both libraries together (profiles are reusable, §3.1).
	pr := profiler.New(profiler.Options{DropZeroReturns: true})
	for _, f := range []*obj.File{libA, libB} {
		if err := pr.AddLibrary(f); err != nil {
			t.Fatal(err)
		}
	}
	set := profile.Set{}
	for _, name := range []string{"liba.so", "libb.so"} {
		p, err := pr.ProfileLibrary(name)
		if err != nil {
			t.Fatal(err)
		}
		set[name] = p
	}

	plan := &scenario.Plan{Triggers: []scenario.Trigger{
		{Function: "a_op", Inject: 1, Retval: "-10"},
		{Function: "b_op", Inject: 1, Retval: "-20"},
	}}
	ctl, err := controller.NewForPlan(set, plan)
	if err != nil {
		t.Fatal(err)
	}

	sys := vm.NewSystem(vm.Options{})
	for _, f := range []*obj.File{libA, libB, app} {
		sys.Register(f)
	}
	if err := ctl.Install(sys); err != nil {
		t.Fatal(err)
	}
	p, err := sys.Spawn("app", vm.SpawnConfig{Preload: []string{controller.StubLibName}})
	if err != nil {
		t.Fatal(err)
	}
	// One synthesized library carries stubs for both original libraries.
	stub, ok := p.ImageByName(controller.StubLibName)
	if !ok {
		t.Fatal("stub library not preloaded")
	}
	for _, fn := range []string{"a_op", "b_op"} {
		if _, ok := stub.File.LookupExport(fn); !ok {
			t.Errorf("stub library missing %s", fn)
		}
	}
	if err := sys.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Status.Code != 1111 {
		t.Errorf("code = %d, want 1111 (both injected once, both pass through after)", p.Status.Code)
	}
	if len(ctl.Log()) != 2 {
		t.Errorf("log = %+v", ctl.Log())
	}
}

// TestProfilesReusableAcrossPrograms: §3.1 — "we wish to reuse profiles
// across multiple programs once they have been generated". One profile
// set drives campaigns against two different applications.
func TestProfilesReusableAcrossPrograms(t *testing.T) {
	set := libcProfiles(t)
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "open", Inject: 1, Retval: "-1", Errno: "EACCES",
	}}}
	for _, appSrc := range []string{
		appHeader + `int main(void) { if (open("/a", 0, 0) == -1) { return errno; } return 0; }`,
		appHeader + `int main(void) { int i; for (i = 0; i < 2; i = i + 1) { open("/b", 65, 0); } return errno; }`,
	} {
		st, ctl := runWithPlan(t, appSrc, plan, set)
		if st.Code != 13 { // EACCES
			t.Errorf("app exit = %d, want 13", st.Code)
		}
		if len(ctl.Log()) != 1 {
			t.Errorf("injections = %d", len(ctl.Log()))
		}
	}
}

// TestWriteLogFormat checks the §5.2 text log records the triggering
// context (call count, stack).
func TestWriteLogFormat(t *testing.T) {
	set := libcProfiles(t)
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "close", Inject: 1, Retval: "-1", Errno: "EIO",
	}}}
	src := appHeader + `
int main(void) {
  int fd;
  fd = open("/f", 65, 0);
  close(fd);
  return 0;
}`
	_, ctl := runWithPlan(t, src, plan, set)
	var sb strings.Builder
	if err := ctl.WriteLog(&sb); err != nil {
		t.Fatal(err)
	}
	logText := sb.String()
	for _, want := range []string{"fn=close", "call=1", "retval=-1", "errno=5", "stack=close<-main"} {
		if !strings.Contains(logText, want) {
			t.Errorf("log missing %q:\n%s", want, logText)
		}
	}
}
