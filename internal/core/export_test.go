package core

import "lfi/internal/vm"

// WithMemoBudget returns opts with the memo ladder capped at budget
// bytes; 1 mints no rung, so every run starts from the entry snapshot.
func WithMemoBudget(opts SweepOptions, budget int64) SweepOptions {
	opts.memoBudget = budget
	return opts
}

// System exposes the campaign's VM, so tests can step a run and
// snapshot it mid-flight.
func (c *Campaign) System() *vm.System { return c.sys }
