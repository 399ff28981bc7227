package experiments

import (
	"fmt"
	"runtime"
	"strings"

	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
)

// The §2 robustness-benchmark pair: two implementations of the same
// config-loading program, one defensive and one sloppy, swept through
// every (function, error code) fault of the libc profile.
const (
	defensiveAppSrc = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern byte *malloc(int n);
extern tls int errno;
int main(void) {
  int fd;
  int n;
  byte buf[64];
  byte *state;
  fd = open("/etc/conf", 0, 0);
  if (fd < 0) { n = 0; }           // tolerate: defaults
  else {
    n = read(fd, buf, 63);
    if (n < 0) { n = 0; }          // tolerate: empty config
    if (close(fd) < 0) { }         // tolerate: ignore
  }
  state = malloc(128);
  if (state == 0) { return 7; }    // detect: graceful error exit
  state[0] = 's';
  return 0;
}
`
	sloppyAppSrc = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern byte *malloc(int n);
extern tls int errno;
int main(void) {
  int fd;
  int n;
  byte buf[64];
  byte *state;
  fd = open("/etc/conf", 0, 0);
  n = read(fd, buf, 63);           // BUG: fd unchecked
  close(fd);
  state = malloc(128);
  state[0] = 's';                  // BUG: allocation unchecked
  buf[n] = 0;                      // BUG: n may be -1
  return 0;
}
`
)

// RobustnessApp is one application's robustness matrix.
type RobustnessApp struct {
	Name   string
	Result *core.SweepResult
}

// RobustnessResult is the §2 systematic comparison: the same faultload
// swept over a defensive and a sloppy implementation.
type RobustnessResult struct {
	Workers int
	Apps    []RobustnessApp
}

// Robustness runs the §2 robustness benchmark with a parallel campaign
// scheduler: every (function, error code) experiment is an independent
// run, distributed over the given number of workers (<= 0: GOMAXPROCS).
// Runs restore from a per-app vm.Snapshot, and each trigger site's
// pre-fault prefix is shared across its errno variants (prefix
// memoization). The rendered result is identical at any worker count.
func Robustness(workers int) (*RobustnessResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lc, err := libc.Compile()
	if err != nil {
		return nil, err
	}
	l := core.New(core.Options{Heuristics: true})
	if err := l.AddKernelImage(); err != nil {
		return nil, err
	}
	if err := l.AddLibrary(lc); err != nil {
		return nil, err
	}
	p, err := l.ProfileLibrary(libc.Name)
	if err != nil {
		return nil, err
	}
	// Restrict the sweep to the calls these programs make.
	kept := p.Functions[:0]
	for _, fn := range p.Functions {
		switch fn.Name {
		case "open", "read", "close", "malloc":
			kept = append(kept, fn)
		}
	}
	p.Functions = kept
	set := profile.Set{libc.Name: p}

	res := &RobustnessResult{Workers: workers}
	for _, app := range []struct{ name, src string }{
		{"defensive", defensiveAppSrc},
		{"sloppy", sloppyAppSrc},
	} {
		exe, err := minic.Compile(app.name, app.src, obj.Executable)
		if err != nil {
			return nil, err
		}
		cfg := core.CampaignConfig{
			Programs:   []*obj.File{lc, exe},
			Executable: app.name,
			Files:      map[string][]byte{"/etc/conf": []byte("mode=safe\n")},
		}
		sweep, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
			core.SweepOptions{Workers: workers, Snapshot: true})
		if err != nil {
			return nil, err
		}
		res.Apps = append(res.Apps, RobustnessApp{Name: app.name, Result: sweep})
	}
	return res, nil
}

// Crashes counts crash outcomes for the named app (-1 if absent).
func (r *RobustnessResult) Crashes(name string) int {
	for _, a := range r.Apps {
		if a.Name == name {
			return a.Result.Summary()[core.OutcomeCrash]
		}
	}
	return -1
}

// Render prints both matrices and the comparison verdict.
func (r *RobustnessResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§2 — robustness comparison (snapshot-restore sweep, %d workers)\n", r.Workers)
	for _, a := range r.Apps {
		b.WriteString(a.Result.Render())
	}
	fmt.Fprintf(&b, "crashes: defensive=%d sloppy=%d\n",
		r.Crashes("defensive"), r.Crashes("sloppy"))
	return b.String()
}
