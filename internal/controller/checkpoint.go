// Controller-side half of a mid-execution sweep checkpoint.
//
// A vm.Snapshot taken at a plan's first-fire site freezes the guest,
// but trigger decisions also depend on controller state the VM never
// sees: per-process evaluator state (call counts, once-latches, fault
// counts) and the injection-log prefix. Checkpoint captures that half;
// SeedCheckpoint replays it into a fresh per-experiment controller
// before the restored system runs, so post-restore trigger decisions
// and logs are bit-identical to an unbroken run.
//
// Kernel state, armed degradations included, is the snapshot's half:
// vm.Snapshot clones it with the rest of the guest.
//
// The campaign executor no longer takes checkpoints: its prefixes are
// rungs of a pass-through baseline, and Resume rebuilds their evaluator
// state from the stubs' call counters. The campaign benchmark's
// replica (bench/replica.go) still builds per-group prefixes with them.
package controller

import "lfi/internal/scenario"

// Checkpoint is the controller state frozen alongside a mid-execution
// vm.Snapshot. It is immutable once taken and may seed any number of
// controllers concurrently.
type Checkpoint struct {
	evals map[int]scenario.EvalState
	log   []InjectionRecord
}

// Checkpoint exports the controller's mutable campaign state: a deep
// copy of every process evaluator's state and the injection log so far.
func (c *Controller) Checkpoint() *Checkpoint {
	ck := &Checkpoint{
		evals: make(map[int]scenario.EvalState, len(c.evals)),
		log:   append([]InjectionRecord(nil), c.log...),
	}
	for pid, ev := range c.evals {
		ck.evals[pid] = ev.State()
	}
	return ck
}

// SeedCheckpoint primes this controller with a checkpoint exported from
// another controller over a same-shaped plan: evaluators are minted for
// every checkpointed process and seeded with deep copies of its state,
// and the injection log is replaced by the checkpoint's prefix. Must be
// called before the controller sees its first intercepted call.
//
// The random stream is NOT transferred (see scenario.EvalState), so the
// caller is responsible for only seeding across prefixes that consumed
// no randomness — the scenario.FirstFireSite contract.
func (c *Controller) SeedCheckpoint(ck *Checkpoint) {
	for pid, st := range ck.evals {
		c.evaluatorFor(pid).SetState(st)
	}
	c.log = append(c.log[:0], ck.log...)
}
