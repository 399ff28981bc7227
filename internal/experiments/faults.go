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

// The fault-model comparison pair: two journal writers that differ only
// in whether a failed write is retried once. A one-shot error-return
// fault (the paper's model) is exactly what a single retry absorbs; a
// stateful degradation — a disk that stays full, a call that never
// returns — is not. Sweeping both apps under both models measures how
// much the error-return matrix under-approximates stateful failures.
const (
	retryingAppSrc = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int write(int fd, byte *buf, int n);
extern tls int errno;
int main(void) {
  int fd;
  int i;
  int n;
  fd = open("/journal", 65, 0);
  if (fd < 0) { return 3; }
  i = 0;
  while (i < 4) {
    n = write(fd, "record--", 8);
    if (n < 8) { n = write(fd, "record--", 8); }   // retry once
    if (n < 8) { close(fd); return 4; }
    i = i + 1;
  }
  close(fd);
  return 0;
}
`
	checkingAppSrc = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int write(int fd, byte *buf, int n);
extern tls int errno;
int main(void) {
  int fd;
  int i;
  fd = open("/journal", 65, 0);
  if (fd < 0) { return 3; }
  i = 0;
  while (i < 4) {
    if (write(fd, "record--", 8) < 8) { close(fd); return 4; }
    i = i + 1;
  }
  close(fd);
  return 0;
}
`
)

// FaultModelApp is one application swept under both fault models.
type FaultModelApp struct {
	Name        string
	Errno       *core.SweepResult // one-shot error-return matrix
	Degradation *core.SweepResult // delay + exhaustion matrix
}

// FaultModelsResult compares the error-return fault model against the
// stateful degradation models over the same applications and profile.
type FaultModelsResult struct {
	Workers int
	Apps    []FaultModelApp
}

// FaultModels sweeps the retrying and checking journal writers under
// (a) the one-shot error-return matrix (core.PlanExperiments) and
// (b) the stateful degradation matrix (core.DegradationExperiments:
// latency past the budget, disk exhaustion, fd pressure), on the same
// restricted libc profile. Both sweeps run on the parallel scheduler
// and restore from a per-app snapshot with prefix memoization. Results
// are deterministic at any worker count.
func FaultModels(workers int) (*FaultModelsResult, error) {
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
	// Restrict both matrices to the calls these programs make.
	kept := p.Functions[:0]
	for _, fn := range p.Functions {
		switch fn.Name {
		case "open", "write", "close":
			kept = append(kept, fn)
		}
	}
	p.Functions = kept
	set := profile.Set{libc.Name: p}

	res := &FaultModelsResult{Workers: workers}
	for _, app := range []struct{ name, src string }{
		{"retrying", retryingAppSrc},
		{"checking", checkingAppSrc},
	} {
		exe, err := minic.Compile(app.name, app.src, obj.Executable)
		if err != nil {
			return nil, err
		}
		cfg := core.CampaignConfig{
			Programs:   []*obj.File{lc, exe},
			Executable: app.name,
		}
		opts := core.SweepOptions{Workers: workers, Snapshot: true}
		errnoRes, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, opts)
		if err != nil {
			return nil, err
		}
		degrRes, err := core.RunExperiments(cfg, core.DegradationExperiments(set), 0, opts)
		if err != nil {
			return nil, err
		}
		res.Apps = append(res.Apps, FaultModelApp{
			Name: app.name, Errno: errnoRes, Degradation: degrRes,
		})
	}
	return res, nil
}

// Masked counts the cells where the error-return model reports handled
// but some degradation of the same function does not — the stateful
// failures a one-shot errno sweep under-approximates.
func (r *FaultModelsResult) Masked(app string) int {
	masked := 0
	for _, a := range r.Apps {
		if a.Name != app {
			continue
		}
		tolerated := map[string]bool{}
		for _, e := range a.Errno.Entries {
			if e.Outcome == core.OutcomeHandled {
				tolerated[e.Function] = true
			}
		}
		counted := map[string]bool{}
		for _, e := range a.Degradation.Entries {
			if tolerated[e.Function] && !counted[e.Function] &&
				e.Outcome != core.OutcomeHandled && e.Outcome != core.OutcomeNotTriggered {
				counted[e.Function] = true
				masked++
			}
		}
	}
	return masked
}

// Render prints both matrices per app and the comparison verdict.
func (r *FaultModelsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fault-model comparison: error-return vs stateful degradation (snapshot-restore sweep, %d workers)\n",
		r.Workers)
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "--- %s: error-return matrix ---\n", a.Name)
		b.WriteString(a.Errno.Render())
		fmt.Fprintf(&b, "--- %s: degradation matrix ---\n", a.Name)
		b.WriteString(a.Degradation.Render())
	}
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "masked by one-shot errno model: %s=%d function(s)\n",
			a.Name, r.Masked(a.Name))
	}
	return b.String()
}
