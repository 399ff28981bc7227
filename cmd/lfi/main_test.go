package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeDemoAssets runs `lfi demo` into dir and returns the produced
// paths.
func writeDemoAssets(t *testing.T, dir string) (libPath, profPath string) {
	t.Helper()
	if err := run([]string{"demo", "-o", dir}); err != nil {
		t.Fatalf("demo: %v", err)
	}
	return filepath.Join(dir, "libc.slef"), filepath.Join(dir, "libc.so.profile.xml")
}

const cliAppSrc = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern tls int errno;
int main(void) {
  int fd;
  fd = open("/cfg", 0, 0);
  if (fd < 0) { return errno; }
  close(fd);
  return 0;
}
`

func TestCLIFullWorkflow(t *testing.T) {
	dir := t.TempDir()
	libPath, profPath := writeDemoAssets(t, dir)

	// build
	srcPath := filepath.Join(dir, "app.mc")
	if err := os.WriteFile(srcPath, []byte(cliAppSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	appPath := filepath.Join(dir, "app.slef")
	if err := run([]string{"build", "-exe", "-name", "app", "-o", appPath, srcPath}); err != nil {
		t.Fatalf("build: %v", err)
	}

	// plan (random, seeded)
	planPath := filepath.Join(dir, "plan.xml")
	if err := run([]string{"plan", "-kind", "fileio", "-p", "100", "-seed", "3",
		"-profile", profPath, "-o", planPath}); err != nil {
		t.Fatalf("plan: %v", err)
	}
	planBytes, err := os.ReadFile(planPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(planBytes), `name="open"`) {
		t.Errorf("plan missing open trigger:\n%s", planBytes)
	}

	// run under injection, capture log + replay
	logPath := filepath.Join(dir, "lfi.log")
	replayPath := filepath.Join(dir, "replay.xml")
	if err := run([]string{"run", "-app", appPath, "-lib", libPath,
		"-plan", planPath, "-profile", profPath,
		"-log", logPath, "-replay", replayPath}); err != nil {
		t.Fatalf("run: %v", err)
	}
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logBytes), "fn=open") {
		t.Errorf("log missing injection: %q", logBytes)
	}
	replayBytes, err := os.ReadFile(replayPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(replayBytes), "<plan>") {
		t.Errorf("replay script malformed: %q", replayBytes)
	}

	// replay the generated script
	if err := run([]string{"run", "-app", appPath, "-lib", libPath,
		"-plan", replayPath, "-profile", profPath}); err != nil {
		t.Fatalf("replay run: %v", err)
	}
}

func TestCLIProfileApplication(t *testing.T) {
	dir := t.TempDir()
	libPath, _ := writeDemoAssets(t, dir)
	srcPath := filepath.Join(dir, "app.mc")
	if err := os.WriteFile(srcPath, []byte(cliAppSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	appPath := filepath.Join(dir, "app.slef")
	if err := run([]string{"build", "-exe", "-name", "app", "-o", appPath, srcPath}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"profile", "-app", appPath, "-lib", libPath, "-o", dir}); err != nil {
		t.Fatalf("profile -app: %v", err)
	}
	out, err := os.ReadFile(filepath.Join(dir, "libc.so.profile.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `<function name="close">`) {
		t.Error("application profile missing close")
	}
}

func TestCLIDisasmAndCFG(t *testing.T) {
	dir := t.TempDir()
	libPath, _ := writeDemoAssets(t, dir)
	if err := run([]string{"disasm", "-func", "close", libPath}); err != nil {
		t.Errorf("disasm: %v", err)
	}
	if err := run([]string{"cfg", "-func", "close", libPath}); err != nil {
		t.Errorf("cfg: %v", err)
	}
	if err := run([]string{"cfg", "-func", "close", "-dot", libPath}); err != nil {
		t.Errorf("cfg -dot: %v", err)
	}
	if err := run([]string{"cfg", "-func", "missing", libPath}); err == nil {
		t.Error("cfg of missing symbol should fail")
	}
}

// captureOutput runs fn with os.Stdout and os.Stderr redirected and
// returns what it printed to each, and its error.
func captureOutput(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	redirect := func(f **os.File) (restore func() string) {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		old := *f
		*f = w
		outc := make(chan string, 1)
		go func() {
			b, _ := io.ReadAll(r)
			outc <- string(b)
		}()
		return func() string {
			w.Close()
			*f = old
			out := <-outc
			r.Close()
			return out
		}
	}
	restoreOut, restoreErr := redirect(&os.Stdout), redirect(&os.Stderr)
	err = fn()
	return restoreOut(), restoreErr(), err
}

// captureStdout runs a command expected to succeed and returns what it
// printed to stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	out, _, err := captureOutput(t, fn)
	if err != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", err, out)
	}
	return out
}

func TestCLISweep(t *testing.T) {
	dir := t.TempDir()
	libPath, profPath := writeDemoAssets(t, dir)
	srcPath := filepath.Join(dir, "app.mc")
	if err := os.WriteFile(srcPath, []byte(cliAppSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	appPath := filepath.Join(dir, "app.slef")
	if err := run([]string{"build", "-exe", "-name", "app", "-o", appPath, srcPath}); err != nil {
		t.Fatal(err)
	}

	// Explicit profiles, parallel workers, early-stop flag.
	out := captureStdout(t, func() error {
		return run([]string{"sweep", "-app", appPath, "-lib", libPath,
			"-profile", profPath, "-j", "4", "-max-crashes", "3"})
	})
	if !strings.Contains(out, "robustness sweep: app") || !strings.Contains(out, "summary:") {
		t.Errorf("sweep report malformed:\n%s", out)
	}

	// In-process profiling path (no -profile).
	out2 := captureStdout(t, func() error {
		return run([]string{"sweep", "-app", appPath, "-lib", libPath, "-heuristics", "-j", "2"})
	})
	if !strings.Contains(out2, "robustness sweep: app") {
		t.Errorf("in-process-profiled sweep malformed:\n%s", out2)
	}

	if err := run([]string{"sweep"}); err == nil {
		t.Error("sweep without -app should fail")
	}
	if err := run([]string{"sweep", "-app", appPath}); err == nil {
		t.Error("sweep with unresolvable libraries should fail")
	}
}

// crashAppSrc has a crash path (unchecked malloc) so -max-crashes can
// truncate and the audit can front it, plus two distinct tolerated
// functions (strcmp, strncmp) so escalation has pairs to mint. No file
// I/O: the CLI sweep installs no kernel files, so open would fail in
// the baseline too.
const crashAppSrc = `
needs "libc.so";
extern int strcmp(byte *a, byte *b);
extern int strncmp(byte *a, byte *b, int n);
extern byte *malloc(int n);
int main(void) {
  int r;
  byte *p;
  r = strcmp("a", "a");
  if (r != 0) { r = 0; }        // tolerate injected compare fault
  r = strncmp("ab", "ab", 2);
  if (r != 0) { r = 0; }        // tolerate injected compare fault
  p = malloc(4);
  p[0] = 'x';                   // BUG: unchecked allocation
  return 0;
}
`

// TestCLISweepStoreResume: the persistent campaign workflow end to end —
// a max-crashes-truncated sweep fills the store halfway, the resumed
// sweep prints a report byte-identical to a fresh full one, and -triage
// and -escalate render their passes after it.
func TestCLISweepStoreResume(t *testing.T) {
	dir := t.TempDir()
	libPath, profPath := writeDemoAssets(t, dir)
	srcPath := filepath.Join(dir, "app.mc")
	if err := os.WriteFile(srcPath, []byte(crashAppSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	appPath := filepath.Join(dir, "app.slef")
	if err := run([]string{"build", "-exe", "-name", "app", "-o", appPath, srcPath}); err != nil {
		t.Fatal(err)
	}
	base := []string{"sweep", "-app", appPath, "-lib", libPath, "-profile", profPath}

	fresh, stats, err := captureOutput(t, func() error { return run(append(base, "-faults", "errno", "-j", "4")) })
	if err != nil {
		t.Fatal(err)
	}
	// Prefix-memoization stats go to stderr, never into the report. Of
	// the 73 errno experiments, the 68 on functions the baseline never
	// calls are pruned; strcmp and strncmp each form a group at their
	// first call, served from a rung the baseline minted; malloc's
	// single errno is a singleton, anchored on strncmp's rung, the last
	// one minted before the first malloc call.
	memoLine := regexp.MustCompile(`(?m)^memo: groups=2 max-group=2 rungs=2 prefixes=0 restored=4 terminal=0 anchored=1 pruned=68 singletons=1 unmemoizable=0 fallbacks=0 evictions=0 peak-bytes=\d+$`)
	if !memoLine.MatchString(stats) || strings.Contains(fresh, "memo:") {
		t.Errorf("memo stats line missing from stderr or leaked into the report:\n--- stdout ---\n%s--- stderr ---\n%s", fresh, stats)
	}

	storeDir := filepath.Join(dir, "campaign")
	// Phase 1: the "killed" campaign — truncated by -max-crashes.
	partial := captureStdout(t, func() error {
		return run(append(base, "-j", "2", "-max-crashes", "1", "-store", storeDir))
	})
	if partial == fresh {
		t.Fatal("-max-crashes run should be truncated relative to the full sweep")
	}
	if _, err := os.Stat(filepath.Join(storeDir, "results.jsonl")); err != nil {
		t.Fatalf("store not written: %v", err)
	}

	// Phase 2: resume — byte-identical to the fresh full report.
	resumed := captureStdout(t, func() error {
		return run(append(base, "-j", "4", "-store", storeDir, "-resume"))
	})
	if resumed != fresh {
		t.Errorf("resumed report differs from fresh:\n--- fresh ---\n%s--- resumed ---\n%s", fresh, resumed)
	}
	// Resume is idempotent and worker-count-independent.
	again := captureStdout(t, func() error {
		return run(append(base, "-j", "1", "-store", storeDir, "-resume"))
	})
	if again != fresh {
		t.Errorf("single-worker resume differs from fresh:\n%s\nvs\n%s", fresh, again)
	}

	// Phase 3: triage + escalation render after the (unchanged) report.
	out := captureStdout(t, func() error {
		return run(append(base, "-j", "4", "-store", storeDir, "-resume", "-triage", "-escalate"))
	})
	if !strings.HasPrefix(out, fresh) {
		t.Errorf("triage output must follow the unchanged report:\n%s", out)
	}
	if !strings.Contains(out, "crash triage:") || !strings.Contains(out, "escalation:") {
		t.Errorf("missing triage/escalation sections:\n%s", out)
	}
	again = captureStdout(t, func() error {
		return run(append(base, "-j", "8", "-store", storeDir, "-resume", "-triage", "-escalate"))
	})
	if again != out {
		t.Errorf("triage/escalation output differs across worker counts:\n--- j4 ---\n%s--- j8 ---\n%s", out, again)
	}

	// Flags that need the store must say so.
	if err := run(append(base, "-resume")); err == nil {
		t.Error("-resume without -store should fail")
	}
	if err := run(append(base, "-triage")); err == nil {
		t.Error("-triage without -store should fail")
	}
}

// TestCLISweepAvailability: `lfi sweep -avail` end to end — the
// reference report covers the availability classes and the paper-style
// comparison cells, its records resume from a campaign store at another
// worker count, and -triage clusters the failures by class.
func TestCLISweepAvailability(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "campaign")
	base := []string{"sweep", "-avail", "minidb", "-store", storeDir}
	ref := captureStdout(t, func() error { return run(append(base, "-j", "2")) })
	for _, want := range []string{
		"avail=recovered", "avail=degraded", "avail=wedged", "served=200/",
		// One-shot WAL errno is retried away; persistent exhaustion and
		// a budget-length stall defeat the retry.
		`libc\.so\.write -> -1 .*avail=recovered`,
		`exhaust=disk:after=0 .*avail=degraded`,
		`delay=200000000 .*avail=wedged`,
	} {
		if !regexp.MustCompile(want).MatchString(ref) {
			t.Errorf("reference report has no %q row:\n%s", want, ref)
		}
	}
	resumed := captureStdout(t, func() error { return run(append(base, "-j", "8", "-resume")) })
	if resumed != ref {
		t.Errorf("resumed availability report differs:\n--- fresh ---\n%s--- resumed ---\n%s", ref, resumed)
	}
	triaged := captureStdout(t, func() error { return run(append(base, "-j", "4", "-resume", "-triage")) })
	if !strings.HasPrefix(triaged, ref) {
		t.Errorf("triage output must follow the unchanged report:\n%s", triaged)
	}
	for _, want := range []string{"cluster 1 [degraded] reach=4", "[wedged] reach=3", "avail=wedged served=", "avail=degraded served="} {
		if !strings.Contains(triaged, want) {
			t.Errorf("triage is missing %q:\n%s", want, triaged)
		}
	}
}

func TestCLIPlanCheck(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.xml")
	if err := os.WriteFile(good, []byte(`<plan>
  <function name="write" retval="-1" errno="ENOSPC" sticky="true">
    <after-fault function="malloc"></after-fault>
  </function>
  <function name="read" probability="10" random="true"></function>
</plan>`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return run([]string{"plan", "-check", good})
	})
	if !strings.Contains(out, "OK — 2 triggers over 2 functions") {
		t.Errorf("check summary malformed:\n%s", out)
	}
	// Lint: the random trigger has no profile, and after-fault names a
	// function no trigger targets.
	if !strings.Contains(out, "warnings:") ||
		!strings.Contains(out, `no profile supplies error codes for "read"`) ||
		!strings.Contains(out, `no trigger targets "malloc"`) {
		t.Errorf("expected lint warnings:\n%s", out)
	}

	// A bad retval must fail with the trigger's position.
	bad := filepath.Join(dir, "bad.xml")
	if err := os.WriteFile(bad, []byte(`<plan>
  <function name="read" retval="-1"></function>
  <function name="write" retval="oops"></function>
</plan>`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"plan", "-check", bad})
	if err == nil {
		t.Fatal("bad retval should fail -check")
	}
	if msg := err.Error(); !strings.Contains(msg, "trigger 1") || !strings.Contains(msg, `"oops"`) {
		t.Errorf("error lacks position: %v", err)
	}

	if err := run([]string{"plan", "-check", filepath.Join(dir, "missing.xml")}); err == nil {
		t.Error("missing plan file should fail -check")
	}
}

func TestCLIErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"build"},                       // missing source
		{"profile"},                     // need -app or -library
		{"plan", "-kind", "bogus"},      // unknown kind
		{"plan"},                        // no profiles
		{"run"},                         // missing -app
		{"disasm"},                      // missing path
		{"run", "-app", "/nonexistent"}, // unreadable
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
	// Flag errors that must name the flag. They are caught before any
	// asset loads or any run starts, so bogus paths prove the error is
	// the flag check's.
	for _, c := range []struct {
		args []string
		want string
	}{
		// The executor is not a user choice: snapshot restores with
		// prefix memoization and baseline pruning is the only sweep
		// runtime.
		{[]string{"sweep", "-app", "/nonexistent", "-snapshot"}, "-snapshot"},
		{[]string{"sweep", "-app", "/nonexistent", "-memo=false"}, "-memo"},
		{[]string{"sweep", "-app", "/nonexistent", "-memo-budget", "1"}, "-memo-budget"},
		{[]string{"sweep", "-app", "/nonexistent", "-prune"}, "-prune"},
		{[]string{"sweep", "-avail", "minidb", "-app", "/nonexistent"}, "-avail replaces -app"},
		{[]string{"sweep", "-avail", "minidb", "-lib", "/nonexistent"}, "-avail replaces -lib"},
		{[]string{"sweep", "-avail", "minidb", "-profile", "/nonexistent"}, "-avail replaces -profile"},
		{[]string{"sweep", "-avail", "minidb", "-faults", "errno"}, "-avail replaces -faults"},
		{[]string{"sweep", "-avail", "minidb", "-heuristics=false"}, "-avail replaces -heuristics"},
		{[]string{"sweep", "-avail", "bogus", "-app", "/x", "-faults", "all"}, "-avail replaces -app, -faults"},
	} {
		err := run(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: err = %v, want it to name %q", c.args, err, c.want)
		}
	}
}

// TestCLISweepFaultModels: -faults selects the experiment matrix —
// degradation rows render fault labels instead of retval/errno
// coordinates, and -faults all is the concatenation of both sweeps.
func TestCLISweepFaultModels(t *testing.T) {
	dir := t.TempDir()
	libPath, profPath := writeDemoAssets(t, dir)
	srcPath := filepath.Join(dir, "app.mc")
	if err := os.WriteFile(srcPath, []byte(cliAppSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	appPath := filepath.Join(dir, "app.slef")
	if err := run([]string{"build", "-exe", "-name", "app", "-o", appPath, srcPath}); err != nil {
		t.Fatal(err)
	}

	degr := captureStdout(t, func() error {
		return run([]string{"sweep", "-app", appPath, "-lib", libPath,
			"-profile", profPath, "-faults", "degradation", "-j", "4"})
	})
	for _, want := range []string{"delay=", "exhaust=disk:after=", "exhaust=fds:slots="} {
		if !strings.Contains(degr, want) {
			t.Errorf("degradation sweep missing %q:\n%s", want, degr)
		}
	}
	if strings.Contains(degr, "errno=") {
		t.Errorf("degradation sweep rendered errno coordinates:\n%s", degr)
	}

	// Degradation reports are worker-count-independent, like errno
	// reports.
	degr2 := captureStdout(t, func() error {
		return run([]string{"sweep", "-app", appPath, "-lib", libPath,
			"-profile", profPath, "-faults", "degradation", "-j", "1"})
	})
	if degr2 != degr {
		t.Errorf("degradation report differs across worker counts:\n--- j4 ---\n%s--- j1 ---\n%s", degr, degr2)
	}

	// Degradation records round-trip through a campaign store.
	storeDir := filepath.Join(dir, "campaign")
	degrArgs := []string{"sweep", "-app", appPath, "-lib", libPath, "-profile", profPath, "-faults", "degradation"}
	captureStdout(t, func() error { return run(append(degrArgs, "-j", "2", "-store", storeDir)) })
	resumed := captureStdout(t, func() error {
		return run(append(degrArgs, "-j", "8", "-store", storeDir, "-resume"))
	})
	if resumed != degr {
		t.Errorf("resumed degradation report differs:\n--- fresh ---\n%s--- resumed ---\n%s", degr, resumed)
	}

	all := captureStdout(t, func() error {
		return run([]string{"sweep", "-app", appPath, "-lib", libPath,
			"-profile", profPath, "-faults", "all", "-j", "4"})
	})
	if !strings.Contains(all, "errno=") || !strings.Contains(all, "exhaust=disk:after=") {
		t.Errorf("-faults all missing a model family:\n%s", all)
	}

	if err := run([]string{"sweep", "-app", appPath, "-faults", "bogus"}); err == nil {
		t.Error("unknown -faults value should fail")
	}
}

// cliAuditSrc calls into libc with one checked and several unchecked
// call sites — the audit must split them.
const cliAuditSrc = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern byte *malloc(int n);
int main(void) {
  int fd;
  int n;
  byte buf[32];
  byte *p;
  fd = open("/data", 0, 0);
  if (fd < 0) { return 2; }
  n = read(fd, buf, 31);
  close(fd);
  p = malloc(8);
  p[0] = 'x';
  return 0;
}
`

func buildAuditApp(t *testing.T, dir string) (appPath, libPath, profPath string) {
	t.Helper()
	libPath, profPath = writeDemoAssets(t, dir)
	srcPath := filepath.Join(dir, "app.mc")
	if err := os.WriteFile(srcPath, []byte(cliAuditSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	appPath = filepath.Join(dir, "app.slef")
	if err := run([]string{"build", "-exe", "-name", "app", "-o", appPath, srcPath}); err != nil {
		t.Fatal(err)
	}
	return appPath, libPath, profPath
}

// captureStdoutErr is captureStdout for commands expected to fail (the
// audit's CI-lint exit): it returns the output and the error.
func captureStdoutErr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	out, _, err := captureOutput(t, fn)
	return out, err
}

func TestCLIAudit(t *testing.T) {
	dir := t.TempDir()
	appPath, libPath, profPath := buildAuditApp(t, dir)

	auditArgs := []string{"audit", "-lib", libPath, "-profile", profPath, appPath}
	out, err := captureStdoutErr(t, func() error { return run(auditArgs) })
	if err == nil {
		t.Fatal("audit with unchecked sites must exit nonzero")
	}
	for _, want := range []string{
		"caller-side audit:",
		"main -> open: checked",
		"main -> malloc: unchecked-clobbered",
		"main -> close: unchecked-clobbered",
		"puts_fd -> write: unchecked-propagated",
		"unchecked:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("audit output missing %q:\n%s", want, out)
		}
	}

	// Deterministic across runs.
	again, _ := captureStdoutErr(t, func() error { return run(auditArgs) })
	if out != again {
		t.Errorf("audit output not deterministic:\n--- 1 ---\n%s--- 2 ---\n%s", out, again)
	}

	// Without -profile the targets default to the binaries' imports;
	// libc.slef audited alone has its own internal unchecked site.
	out2, err2 := captureStdoutErr(t, func() error {
		return run([]string{"audit", libPath})
	})
	if err2 == nil {
		t.Error("libc self-audit should flag puts_fd -> write")
	}
	if !strings.Contains(out2, "puts_fd -> write: unchecked-propagated") {
		t.Errorf("self-audit output:\n%s", out2)
	}

	// An application whose every call site is checked audits clean and
	// exits zero (without libc.slef, whose own puts_fd -> write site is
	// unchecked by design).
	cleanSrc := filepath.Join(dir, "clean.mc")
	if err := os.WriteFile(cleanSrc, []byte(`
needs "libc.so";
extern int open(byte *path, int flags, int mode);
int main(void) {
  int fd;
  fd = open("/etc/motd", 0, 0);
  if (fd < 0) { return 2; }
  return 0;
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	cleanPath := filepath.Join(dir, "clean.slef")
	if err := run([]string{"build", "-exe", "-name", "clean", "-o", cleanPath, cleanSrc}); err != nil {
		t.Fatal(err)
	}
	clean := captureStdout(t, func() error { return run([]string{"audit", "-profile", profPath, cleanPath}) })
	if !strings.Contains(clean, "unchecked: 0 site(s)") {
		t.Errorf("clean audit output:\n%s", clean)
	}
}

func TestCLISweepStaticOrder(t *testing.T) {
	dir := t.TempDir()
	appPath, libPath, profPath := buildAuditApp(t, dir)
	base := []string{"sweep", "-app", appPath, "-lib", libPath, "-profile", profPath, "-j", "4"}
	def := captureStdout(t, func() error { return run(base) })
	static := captureStdout(t, func() error {
		return run(append([]string{"sweep", "-order=static"}, base[1:]...))
	})
	if def != static {
		t.Errorf("-order=static full-sweep report differs from default:\n--- default ---\n%s--- static ---\n%s", def, static)
	}
	// The audit fronts the unchecked allocation: an early stop at the
	// first crash lands on it.
	srcPath := filepath.Join(dir, "crash.mc")
	if err := os.WriteFile(srcPath, []byte(crashAppSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	crashPath := filepath.Join(dir, "crash.slef")
	if err := run([]string{"build", "-exe", "-name", "crash", "-o", crashPath, srcPath}); err != nil {
		t.Fatal(err)
	}
	first := captureStdout(t, func() error {
		return run([]string{"sweep", "-order=static", "-max-crashes", "1", "-j", "1",
			"-app", crashPath, "-lib", libPath, "-profile", profPath})
	})
	if !regexp.MustCompile(`libc\.so\.malloc -> 0 .* crash\n`).MatchString(first) ||
		!strings.Contains(first, "summary: crash=1") {
		t.Errorf("-order=static -max-crashes 1 did not stop at the malloc crash:\n%s", first)
	}
	if _, err := captureStdoutErr(t, func() error {
		return run(append([]string{"sweep", "-order=bogus"}, base[1:]...))
	}); err == nil {
		t.Error("unknown -order accepted")
	}
}

func TestCLIPlanCheckAudit(t *testing.T) {
	dir := t.TempDir()
	appPath, libPath, profPath := buildAuditApp(t, dir)
	planPath := filepath.Join(dir, "plan.xml")
	if err := run([]string{"plan", "-kind", "exhaustive", "-profile", profPath, "-o", planPath}); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() error {
		return run([]string{"plan", "-check", planPath, "-profile", profPath,
			"-app", appPath, "-lib", libPath})
	})
	for _, want := range []string{"fire phase:", "audit: malloc", "unchecked-clobbered", "audit: open", "checked"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan -check missing %q:\n%s", want, out)
		}
	}
	// Without -app the audit lines are absent, everything else intact.
	plain := captureStdout(t, func() error {
		return run([]string{"plan", "-check", planPath, "-profile", profPath})
	})
	if strings.Contains(plain, "audit:") {
		t.Errorf("plan -check without -app printed audit lines:\n%s", plain)
	}
}
