package controller_test

import (
	"strings"
	"testing"

	"lfi/internal/controller"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// buildAndRun compiles the given modules (name -> source, kind inferred:
// "app" is the executable), installs the controller and runs to
// completion.
func buildAndRun(t *testing.T, libs map[string]string, appSrc string, plan *scenario.Plan) (vm.ExitStatus, *controller.Controller, *vm.Proc) {
	t.Helper()
	sys := vm.NewSystem(vm.Options{})
	for name, src := range libs {
		f, err := minic.Compile(name, src, obj.Library)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		sys.Register(f)
	}
	app, err := minic.Compile("app", appSrc, obj.Executable)
	if err != nil {
		t.Fatalf("compile app: %v", err)
	}
	sys.Register(app)
	ctl, err := controller.NewForPlan(profile.Set{}, plan)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	if err := ctl.Install(sys); err != nil {
		t.Fatalf("install: %v", err)
	}
	p, err := sys.Spawn("app", vm.SpawnConfig{Preload: []string{controller.StubLibName}})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if err := sys.Run(10_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return p.Status, ctl, p
}

// TestErrnoStoreHitsOwningImage is the regression for the load-order
// errno bug: with two loaded libraries each exporting errno, the
// injected errno must land in the copy owned by the library defining
// the intercepted function — not in whichever errno happens to come
// first in image load order.
func TestErrnoStoreHitsOwningImage(t *testing.T) {
	libs := map[string]string{
		// liba loads BEFORE libb, so the old first-errno-in-load-order
		// resolution would store into liba's copy.
		"liba.so": `
tls int errno;
int a_op(int x) { return x + 1; }
int a_errno(void) { return errno; }`,
		"libb.so": `
tls int errno;
int b_op(int x) { return x + 2; }
int b_errno(void) { return errno; }`,
	}
	app := `
needs "liba.so";
needs "libb.so";
extern int a_errno(void);
extern int b_errno(void);
extern int b_op(int x);
int main(void) {
  int r;
  r = b_op(1);
  if (r != -5) { return 1; }        // injected retval
  if (b_errno() != 9) { return 2; } // owner's errno got the store
  if (a_errno() != 0) { return 3; } // the other library's copy untouched
  return 42;
}`
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "b_op", Inject: 1, Retval: "-5", Errno: "EBADF",
	}}}
	st, ctl, _ := buildAndRun(t, libs, app, plan)
	if st.Signal != 0 || st.Code != 42 {
		t.Errorf("status = %+v, want 42 (errno stored in libb's copy only)", st)
	}
	log := ctl.Log()
	if len(log) != 1 || !log[0].HasErrno || log[0].Errno != 9 || log[0].ErrnoFailed {
		t.Errorf("log = %+v", log)
	}
}

// TestErrnoStoreFallsBackToExecutable: when the owning library exports
// no errno, the main executable's errno is the fallback channel.
func TestErrnoStoreFallsBackToExecutable(t *testing.T) {
	libs := map[string]string{
		"libq.so": `
int q_op(int x) { return x; }`,
	}
	app := `
needs "libq.so";
tls int errno;
extern int q_op(int x);
int main(void) {
  int r;
  errno = 0;
  r = q_op(1);
  if (r == -7 && errno == 5) { return 42; }
  return 1;
}`
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "q_op", Inject: 1, Retval: "-7", Errno: "EIO",
	}}}
	st, ctl, _ := buildAndRun(t, libs, app, plan)
	if st.Signal != 0 || st.Code != 42 {
		t.Errorf("status = %+v, want 42 (fallback to the executable's errno)", st)
	}
	if log := ctl.Log(); len(log) != 1 || log[0].ErrnoFailed {
		t.Errorf("log = %+v", log)
	}
}

// TestErrnoResolutionFailureRecorded: when neither the owning image nor
// the executable exports errno, the record must say so instead of the
// log silently claiming the errno was applied.
func TestErrnoResolutionFailureRecorded(t *testing.T) {
	libs := map[string]string{
		"libq.so": `
int q_op(int x) { return x; }`,
	}
	app := `
needs "libq.so";
extern int q_op(int x);
int main(void) {
  if (q_op(1) == -7) { return 42; }
  return 1;
}`
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "q_op", Inject: 1, Retval: "-7", Errno: "EIO",
	}}}
	st, ctl, _ := buildAndRun(t, libs, app, plan)
	if st.Signal != 0 || st.Code != 42 {
		t.Errorf("status = %+v", st)
	}
	log := ctl.Log()
	if len(log) != 1 {
		t.Fatalf("log = %+v", log)
	}
	r := log[0]
	if !r.ErrnoFailed || !r.HasErrno || r.Errno != 5 {
		t.Errorf("record must mark the unresolved errno store: %+v", r)
	}
	if !strings.Contains(r.String(), "errno-unresolved") {
		t.Errorf("log line must surface the failure: %q", r.String())
	}
}

// TestModifyFailureMarked: an argument modification whose target
// address is invalid (out-of-range argument index, reaching past the
// stack segment) must be recorded as ModifyFailed — the log then states
// the faultload was only partially applied — while valid modifications
// on the same trigger still land.
func TestModifyFailureMarked(t *testing.T) {
	set := libcProfiles(t)
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "write", Inject: 1, CallOriginal: true,
		Modify: []scenario.Modify{
			{Argument: 500000, Op: "set", Value: 1}, // addr past the stack: fails
			{Argument: 3, Op: "sub", Value: 4},      // length 10 -> 6: applies
		},
	}}}
	src := appHeader + `
int main(void) {
  int fd;
  fd = open("/f", 65, 0);
  return write(fd, "0123456789", 10);
}`
	st, ctl := runWithPlan(t, src, plan, set)
	if st.Code != 6 || st.Signal != 0 {
		t.Errorf("status = %+v, want 6 (valid modification still applied)", st)
	}
	log := ctl.Log()
	if len(log) != 1 {
		t.Fatalf("log = %+v", log)
	}
	r := log[0]
	if len(r.Modified) != 1 || r.Modified[0].Argument != 3 {
		t.Errorf("applied modifications = %+v", r.Modified)
	}
	if len(r.ModifyFailed) != 1 || r.ModifyFailed[0].Argument != 500000 {
		t.Errorf("failed modifications must be marked, got %+v", r.ModifyFailed)
	}
	if !strings.Contains(r.String(), "modify-failed(arg500000 set 1)") {
		t.Errorf("log line must surface the failure: %q", r.String())
	}
}
