package experiments

import (
	"fmt"
	"strings"

	"lfi/internal/controller"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// PidginResult reproduces the §6.1 case study: a random 10% faultload on
// libc's I/O functions crashes Pidgin with SIGABRT through its DNS
// resolver child's unchecked partial pipe writes, and the generated
// replay script reproduces the crash.
type PidginResult struct {
	// Seed is the random-scenario seed that produced the crash.
	Seed int64
	// Signal is the parent's death signal ("SIGABRT").
	Signal string
	// Injections is the number of faults injected before the crash.
	Injections int
	// ReplaySignal is the signal observed when re-running the generated
	// replay script.
	ReplaySignal string
	// Log is the injection log of the crashing run.
	Log []controller.InjectionRecord
	// CleanExitCode is pidgin's exit code without LFI (sanity baseline).
	CleanExitCode int32
}

// PidginBug searches seeds of the ready-made "file I/O faults, 10%
// probability" scenario until the crash manifests (the paper hit it
// "shortly after we entered the IM login details"), then replays it.
func PidginBug(e *Env, maxSeeds int) (*PidginResult, error) {
	// Baseline: without LFI pidgin resolves all 12 requests and exits 12.
	clean, _, err := e.runPidgin(nil, pidginBudget)
	if err != nil {
		return nil, err
	}
	if clean.Signal != 0 {
		return nil, fmt.Errorf("pidgin crashes without LFI: %+v", clean)
	}

	for seed := int64(1); seed <= int64(maxSeeds); seed++ {
		plan := scenario.LibcFileIO(e.LibcProfiles, 10, seed)
		st, ctl, err := e.runPidgin(plan, pidginBudget)
		if err != nil {
			return nil, err
		}
		if st.Signal != vm.SigABRT {
			continue
		}
		res := &PidginResult{
			Seed:          seed,
			Signal:        vm.SignalName(st.Signal),
			Injections:    len(ctl.Log()),
			Log:           ctl.Log(),
			CleanExitCode: clean.Code,
		}
		// Replay: the generated script must reproduce the crash.
		replaySt, _, err := e.runPidgin(ctl.ReplayPlan(), pidginBudget)
		if err != nil {
			return nil, err
		}
		res.ReplaySignal = vm.SignalName(replaySt.Signal)
		if replaySt.Signal == 0 {
			res.ReplaySignal = "none"
		}
		return res, nil
	}
	return nil, fmt.Errorf("pidgin bug did not manifest in %d seeds", maxSeeds)
}

// pidginBudget is the cycle budget of each case-study run.
const pidginBudget = 200_000_000

// runPidgin runs pidgin+resolver under the given plan (nil = no LFI)
// and cycle budget.
func (e *Env) runPidgin(plan *scenario.Plan, budget uint64) (vm.ExitStatus, *controller.Controller, error) {
	c, err := e.campaign("pidgin", plan, vm.Options{}, nil, e.Pidgin, e.Resolver)
	if err != nil {
		return vm.ExitStatus{}, nil, err
	}
	rep, err := c.Run(budget)
	if err != nil {
		return vm.ExitStatus{}, nil, err
	}
	if rep.Deadlocked && !c.System().Procs()[0].Exited {
		// The desync can also wedge parent and child, or spin them to
		// the budget; treat either as a hang, not a crash.
		return vm.ExitStatus{Code: -1}, c.Controller(), nil
	}
	return rep.Status, c.Controller(), nil
}

// Render summarises the case study.
func (r *PidginResult) Render() string {
	var b strings.Builder
	b.WriteString("§6.1 — Pidgin DNS-resolver bug (paper: SIGABRT via unchecked partial pipe write)\n")
	fmt.Fprintf(&b, "clean run: exit code %d (no crash)\n", r.CleanExitCode)
	fmt.Fprintf(&b, "random I/O faultload (10%%, seed %d): crash %s after %d injections\n",
		r.Seed, r.Signal, r.Injections)
	fmt.Fprintf(&b, "replay script: crash %s\n", r.ReplaySignal)
	for i, rec := range r.Log {
		if i >= 6 {
			fmt.Fprintf(&b, "  ... %d more injections\n", len(r.Log)-i)
			break
		}
		fmt.Fprintf(&b, "  %s\n", rec.String())
	}
	return b.String()
}
