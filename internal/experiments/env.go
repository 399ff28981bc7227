// Package experiments implements one harness per table and figure of the
// paper's evaluation (§6), plus the §3 side experiments (documentation
// gaps, Figure 2's CFG). Each harness returns a result value with a
// Render method that prints the paper-style rows; cmd/lfi-bench and the
// top-level benchmarks drive them, and the BENCH_*.json files record
// measured values.
package experiments

import (
	"fmt"

	"lfi/internal/apps"
	"lfi/internal/controller"
	"lfi/internal/kernel"
	"lfi/internal/libc"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/profiler"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// Env caches the compiled artifacts shared by the experiments.
type Env struct {
	Libc        *obj.File
	KernelImage *obj.File
	Httpd       *obj.File
	Minidb      *obj.File
	Pidgin      *obj.File
	Resolver    *obj.File
	// LibcProfiles is the profiler's output for the synthetic libc, with
	// the §3.1 heuristics enabled (drop-zero, drop-predicates).
	LibcProfiles profile.Set
}

// NewEnv compiles everything once.
func NewEnv() (*Env, error) {
	e := &Env{}
	var err error
	if e.Libc, err = libc.Compile(); err != nil {
		return nil, err
	}
	if e.KernelImage, err = kernel.Image(); err != nil {
		return nil, err
	}
	for _, app := range []struct {
		name string
		dst  **obj.File
	}{
		{"httpd", &e.Httpd},
		{"minidb", &e.Minidb},
		{"pidgin", &e.Pidgin},
		{"resolver", &e.Resolver},
	} {
		f, err := apps.Compile(app.name)
		if err != nil {
			return nil, err
		}
		*app.dst = f
	}

	pr := profiler.New(profiler.Options{DropZeroReturns: true, DropPredicates: true})
	if err := pr.AddLibrary(e.Libc); err != nil {
		return nil, err
	}
	if err := pr.AddLibrary(e.KernelImage); err != nil {
		return nil, err
	}
	p, err := pr.ProfileLibrary(libc.Name)
	if err != nil {
		return nil, err
	}
	e.LibcProfiles = profile.Set{libc.Name: p}
	return e, nil
}

// newSystem builds a VM system with libc registered plus the given
// programs and kernel files.
func (e *Env) newSystem(opts vm.Options, programs ...*obj.File) *vm.System {
	sys := vm.NewSystem(opts)
	sys.Register(e.Libc)
	for _, f := range programs {
		sys.Register(f)
	}
	return sys
}

// spawnUnder spawns exe with (optionally) the controller's interceptor
// preloaded.
func (e *Env) spawnUnder(sys *vm.System, ctl *controller.Controller, exe string) (*vm.Proc, error) {
	cfg := vm.SpawnConfig{}
	if ctl != nil {
		if err := ctl.Install(sys); err != nil {
			return nil, err
		}
		cfg.Preload = ctl.PreloadList()
	}
	return sys.Spawn(exe, cfg)
}

// passthroughPlan builds an n-trigger plan over the hot function list
// that evaluates on every call but never fires — the Tables 3/4
// methodology ("LFI always passes the call through to the original
// library after evaluating the trigger").
func passthroughPlan(hot []string, n int) *scenario.Plan {
	plan := &scenario.Plan{}
	for i := 0; i < n; i++ {
		plan.Triggers = append(plan.Triggers, scenario.Trigger{
			Function: hot[i%len(hot)],
			Inject:   1_000_000_000 + int32(i), // never reached
			Retval:   "-1",
			Errno:    "EIO",
		})
	}
	return plan
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
