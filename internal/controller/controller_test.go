package controller_test

import (
	"reflect"
	"strings"
	"testing"

	"lfi/internal/controller"
	"lfi/internal/kernel"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/profiler"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// libcProfiles profiles the synthetic libc once per test binary.
func libcProfiles(t *testing.T) profile.Set {
	t.Helper()
	pr := profiler.New(profiler.Options{DropZeroReturns: true})
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	img, err := kernel.Image()
	if err != nil {
		t.Fatal(err)
	}
	if err := pr.AddLibrary(lc); err != nil {
		t.Fatal(err)
	}
	if err := pr.AddLibrary(img); err != nil {
		t.Fatal(err)
	}
	p, err := pr.ProfileLibrary(libc.Name)
	if err != nil {
		t.Fatal(err)
	}
	return profile.Set{libc.Name: p}
}

// runWithPlan compiles src, installs the controller with the plan, runs
// to completion and returns (status, controller).
func runWithPlan(t *testing.T, src string, plan *scenario.Plan, set profile.Set) (vm.ExitStatus, *controller.Controller) {
	t.Helper()
	exe, err := minic.Compile("app", src, obj.Executable)
	if err != nil {
		t.Fatalf("compile app: %v", err)
	}
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sys := vm.NewSystem(vm.Options{})
	sys.Register(lc)
	sys.Register(exe)

	ctl := controller.New(set, plan)
	if err := ctl.Install(sys); err != nil {
		t.Fatalf("install controller: %v", err)
	}
	p, err := sys.Spawn("app", vm.SpawnConfig{Preload: ctl.PreloadList()})
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if err := sys.Run(100_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return p.Status, ctl
}

const appHeader = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern int write(int fd, byte *buf, int n);
extern tls int errno;
`

func TestInjectRetvalAndErrno(t *testing.T) {
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "close", Inject: 1, Retval: "-1", Errno: "EBADF",
	}}}
	src := appHeader + `
int main(void) {
  int fd;
  int r;
  fd = open("/f", 65, 0);
  if (fd < 0) { return 100; }
  errno = 0;
  r = close(fd);
  if (r == -1 && errno == 9) { return 42; }
  return 1;
}`
	st, ctl := runWithPlan(t, src, plan, libcProfiles(t))
	if st.Signal != 0 || st.Code != 42 {
		t.Errorf("status = %+v, want injected path (42)", st)
	}
	log := ctl.Log()
	if len(log) != 1 {
		t.Fatalf("log entries = %d, want 1", len(log))
	}
	r := log[0]
	if r.Function != "close" || r.CallCount != 1 || !r.HasRetval || r.Retval != -1 ||
		!r.HasErrno || r.Errno != kernel.EBADF {
		t.Errorf("log record = %+v", r)
	}
	if !strings.Contains(r.String(), "fn=close") {
		t.Errorf("log line = %q", r.String())
	}
}

func TestPassThroughWhenNoTriggerFires(t *testing.T) {
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "close", Inject: 99, Retval: "-1", Errno: "EBADF",
	}}}
	src := appHeader + `
int main(void) {
  int fd;
  fd = open("/f", 65, 0);
  if (fd < 0) { return 100; }
  return close(fd);   // must reach the real libc: 0
}`
	st, ctl := runWithPlan(t, src, plan, libcProfiles(t))
	if st.Code != 0 || st.Signal != 0 {
		t.Errorf("status = %+v, want clean pass-through", st)
	}
	if len(ctl.Log()) != 0 {
		t.Errorf("unexpected injections: %v", ctl.Log())
	}
}

func TestNthCallTrigger(t *testing.T) {
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "write", Inject: 3, Retval: "-1", Errno: "EIO",
	}}}
	src := appHeader + `
int main(void) {
  int fd;
  int i;
  int bad;
  fd = open("/f", 65, 0);
  bad = 0;
  for (i = 0; i < 5; i = i + 1) {
    if (write(fd, "x", 1) == -1) { bad = bad + 10 + i; }
  }
  return bad;   // only i==2 (3rd call) fails: 12
}`
	st, _ := runWithPlan(t, src, plan, libcProfiles(t))
	if st.Code != 12 || st.Signal != 0 {
		t.Errorf("status = %+v, want 12 (3rd call failed)", st)
	}
}

func TestArgumentModification(t *testing.T) {
	// The paper's third example: modify write's 3rd argument (length) by
	// subtracting, then call the original.
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "write", Inject: 1, CallOriginal: true,
		Modify: []scenario.Modify{{Argument: 3, Op: "sub", Value: 4}},
	}}}
	src := appHeader + `
int main(void) {
  int fd;
  fd = open("/f", 65, 0);
  return write(fd, "0123456789", 10);   // modified to 6
}`
	st, ctl := runWithPlan(t, src, plan, libcProfiles(t))
	if st.Code != 6 || st.Signal != 0 {
		t.Errorf("status = %+v, want 6 (shortened write)", st)
	}
	if len(ctl.Log()) != 1 || len(ctl.Log()[0].Modified) != 1 {
		t.Errorf("log = %+v", ctl.Log())
	}
}

func TestStackTraceTrigger(t *testing.T) {
	// Inject only when close is reached through path_b, as in the
	// paper's readdir/refresh_files example.
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "close", Retval: "-1", Errno: "EINTR",
		Stacktrace: &scenario.StackTrace{Frames: []string{"close", "path_b"}},
	}}}
	src := appHeader + `
static int path_a(int fd) { return close(fd); }
static int path_b(int fd) { return close(fd); }
int main(void) {
  int fd1;
  int fd2;
  int r;
  fd1 = open("/f", 65, 0);
  fd2 = open("/g", 65, 0);
  r = 0;
  if (path_a(fd1) != 0) { r = r + 1; }   // not injected
  if (path_b(fd2) != 0) { r = r + 10; }  // injected
  return r;
}`
	st, ctl := runWithPlan(t, src, plan, libcProfiles(t))
	if st.Code != 10 || st.Signal != 0 {
		t.Errorf("status = %+v, want 10 (only path_b injected)", st)
	}
	log := ctl.Log()
	if len(log) != 1 || len(log[0].Stack) < 2 || log[0].Stack[1] != "path_b" {
		t.Errorf("log = %+v", log)
	}
}

// deepApp reaches close through an eight-deep call chain, deeper than
// the six frames an injection record keeps.
const deepApp = appHeader + `
static int leaf(int fd) { return close(fd); }
static int l2(int fd) { return leaf(fd); }
static int l3(int fd) { return l2(fd); }
static int l4(int fd) { return l3(fd); }
static int l5(int fd) { return l4(fd); }
static int l6(int fd) { return l5(fd); }
static int l7(int fd) { return l6(fd); }
int main(void) {
  int fd;
  fd = open("/f", 65, 0);
  return l7(fd);
}`

// TestBacktraceDepthCap: an injection record keeps the six innermost
// frames of its backtrace, and the replay plan pins injections by call
// count alone, so replay triggers carry no stack.
func TestBacktraceDepthCap(t *testing.T) {
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "close", Inject: 1, Retval: "-1", Errno: "EBADF",
	}}}
	set := libcProfiles(t)
	_, ctl := runWithPlan(t, deepApp, plan, set)
	log := ctl.Log()
	if len(log) != 1 {
		t.Fatalf("log = %+v", log)
	}
	want := []string{"close", "leaf", "l2", "l3", "l4", "l5"}
	if !reflect.DeepEqual(log[0].Stack, want) {
		t.Fatalf("stack = %v, want %v", log[0].Stack, want)
	}
	replay := ctl.ReplayPlan()
	if len(replay.Triggers) != 1 || replay.Triggers[0].Stacktrace != nil {
		t.Fatalf("replay = %+v, want one trigger without a stack", replay)
	}
	if _, ctl2 := runWithPlan(t, deepApp, replay, set); !reflect.DeepEqual(ctl2.Log(), log) {
		t.Errorf("replay log = %+v, want %+v", ctl2.Log(), log)
	}
}

func TestCompileErrorSurfacesAtInstall(t *testing.T) {
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "close", Inject: 1, Retval: "not-a-number",
	}}}
	ctl := controller.New(libcProfiles(t), plan)
	sys := vm.NewSystem(vm.Options{})
	err := ctl.Install(sys)
	if err == nil {
		t.Fatal("unparsable retval must fail Install, not be skipped at fire time")
	}
	if !strings.Contains(err.Error(), `trigger 0 (function "close")`) ||
		!strings.Contains(err.Error(), "not-a-number") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestRandomScenarioAndReplay(t *testing.T) {
	set := libcProfiles(t)
	plan := scenario.LibcFileIO(set, 35, 7)
	src := appHeader + `
int main(void) {
  int fd;
  int i;
  int fails;
  byte buf[8];
  fails = 0;
  for (i = 0; i < 20; i = i + 1) {
    fd = open("/data", 65, 0);
    if (fd < 0) { fails = fails + 1; continue; }
    if (write(fd, "abc", 3) < 0) { fails = fails + 1; }
    if (close(fd) < 0) { fails = fails + 1; }
  }
  return fails;
}`
	st1, ctl := runWithPlan(t, src, plan, set)
	if st1.Signal != 0 {
		t.Fatalf("unexpected signal: %+v", st1)
	}
	if len(ctl.Log()) == 0 {
		t.Fatal("random scenario with 35% probability injected nothing")
	}
	if st1.Code == 0 {
		t.Fatal("injections did not surface as failures")
	}

	// Replay script must reproduce the same observable outcome.
	replay := ctl.ReplayPlan()
	st2, ctl2 := runWithPlan(t, src, replay, set)
	if st2 != st1 {
		t.Errorf("replay status = %+v, original %+v", st2, st1)
	}
	if len(ctl2.Log()) != len(ctl.Log()) {
		t.Errorf("replay injections = %d, original %d", len(ctl2.Log()), len(ctl.Log()))
	}
}

func TestExhaustiveScenarioIteratesCodes(t *testing.T) {
	set := libcProfiles(t)
	plan := scenario.Exhaustive(set)
	// The plan must contain one trigger per (function, error code) with
	// consecutive call counts.
	seen := map[string][]int32{}
	for _, tr := range plan.Triggers {
		seen[tr.Function] = append(seen[tr.Function], tr.Inject)
	}
	closeCalls := seen["close"]
	if len(closeCalls) == 0 {
		t.Fatal("exhaustive plan missing close")
	}
	for i, n := range closeCalls {
		if n != int32(i+1) {
			t.Errorf("close trigger %d fires on call %d, want %d", i, n, i+1)
		}
	}
}

func TestStubSourceShape(t *testing.T) {
	src := controller.GenerateStubSource([]string{"read", "close"})
	for _, want := range []string{
		".lib " + controller.StubLibName,
		".extern __lfi_eval",
		".func close", ".func read",
		"dlnext r1, close", "jmpi r1",
		".dataw __cnt_close 0",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("stub source missing %q", want)
		}
	}
}

func TestInterceptionAcrossSpawn(t *testing.T) {
	// Children inherit the preload set (LD_PRELOAD semantics): faults
	// inject into spawned processes too.
	set := libcProfiles(t)
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "write", Inject: 1, Retval: "-1", Errno: "EPIPE",
	}}}

	child, err := minic.Compile("child", appHeader+`
int main(void) {
  // fd 1 is the pipe write end passed by the parent.
  if (write(1, "ok", 2) == -1) { return 9; }
  return 0;
}`, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}

	parentSrc := appHeader + `
extern int pipe(int *fds);
extern int spawn(byte *prog, int fdin, int fdout);
extern int waitpid(int pid, int *status);
int main(void) {
  int fds[2];
  int pid;
  int status;
  if (pipe(fds) != 0) { return 1; }
  pid = spawn("child", fds[0], fds[1]);
  if (pid < 0) { return 2; }
  if (waitpid(pid, &status) != pid) { return 3; }
  return status;   // child's exit code
}`
	exe, err := minic.Compile("app", parentSrc, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sys := vm.NewSystem(vm.Options{})
	sys.Register(lc)
	sys.Register(exe)
	sys.Register(child)
	ctl := controller.New(set, plan)
	if err := ctl.Install(sys); err != nil {
		t.Fatal(err)
	}
	p, err := sys.Spawn("app", vm.SpawnConfig{Preload: ctl.PreloadList()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	// The child's first write is injected (per-process call counts), so
	// the child exits 9 and the parent propagates it.
	if p.Status.Code != 9 || p.Status.Signal != 0 {
		t.Errorf("status = %+v, want child injection (9)", p.Status)
	}
}

// TestStubSetCalled: Called reads the stubs' static call counters in
// every process. A function only a spawned child calls counts once the
// child has exited; a function whose code runs only through a direct
// call inside libc (puts_fd's strlen) never passed its stub and does
// not count, and neither does a function nobody calls. Count reads the
// same counters one process at a time.
func TestStubSetCalled(t *testing.T) {
	child, err := minic.Compile("child", `
needs "libc.so";
extern int getpid(void);
int main(void) {
  if (getpid() <= 0) { return 1; }
  return 0;
}`, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", `
needs "libc.so";
extern int puts_fd(int fd, byte *s);
extern int spawn(byte *prog, int fdin, int fdout);
extern int waitpid(int pid, int *status);
int main(void) {
  int pid;
  int status;
  puts_fd(1, "hi");
  pid = spawn("child", 0, 1);
  if (pid < 0) { return 2; }
  if (waitpid(pid, &status) != pid) { return 3; }
  return status;
}`, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ss, err := controller.NewStubSet([]string{"getpid", "puts_fd", "spawn", "strlen", "unlink", "waitpid"})
	if err != nil {
		t.Fatal(err)
	}
	sys := vm.NewSystem(vm.Options{})
	sys.Register(lc)
	sys.Register(app)
	sys.Register(child)
	ss.InstallTemplate(sys)
	p, err := sys.Spawn("app", vm.SpawnConfig{Preload: ss.PreloadList()})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Status != (vm.ExitStatus{}) {
		t.Fatalf("app status = %+v, want a clean exit", p.Status)
	}
	if n := len(sys.Procs()); n != 2 {
		t.Fatalf("%d processes, want the app and its child", n)
	}
	got := ss.Called(sys)
	want := map[string]bool{"getpid": true, "puts_fd": true, "spawn": true, "waitpid": true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Called = %v, want %v", got, want)
	}
	procs := sys.Procs()
	for _, c := range []struct {
		proc int
		fn   string
		want int32
	}{{0, "getpid", 0}, {1, "getpid", 1}, {0, "puts_fd", 1}, {1, "puts_fd", 0}, {0, "strlen", 0}, {0, "open", 0}} {
		if n := ss.Count(procs[c.proc], c.fn); n != c.want {
			t.Errorf("Count(process %d, %s) = %d, want %d", c.proc, c.fn, n, c.want)
		}
	}
}
