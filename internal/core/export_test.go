package core

// WithMemoBudget returns opts with the memo ladder capped at budget
// bytes; 1 mints no rung, so every run starts from the entry snapshot.
func WithMemoBudget(opts SweepOptions, budget int64) SweepOptions {
	opts.memoBudget = budget
	return opts
}
