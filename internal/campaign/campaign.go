// Package campaign makes fault-injection sweeps durable and queryable:
// a persistent, append-only result store written live by sweep workers,
// resume filtering that skips completed experiments while rendering
// byte-identical reports, crash triage that dedups hundreds of crashing
// runs into ranked failure-site clusters, and an adaptive escalation
// planner that promotes single-fault survivors into pairwise
// multi-fault scenarios for a second round.
//
// The paper's workflow (§5–§6) is a campaign — sweep the fault space,
// log every injection, replay the interesting runs — but an ephemeral
// sweep forfeits most of that: reports vanish at process exit and every
// invocation re-runs the full plan. Here each completed experiment is
// appended to a JSONL store as its worker finishes (one self-contained
// record per line: canonical faultload key, outcome, exit status,
// injection-log digest, crash stack + hash, cycle/coverage summary),
// so a campaign killed anywhere resumes from exactly what it had:
//
//	store, _ := campaign.Open(dir)
//	defer store.Close()
//	res, _ := campaign.Sweep(cfg, exps, 0,
//	    core.SweepOptions{Workers: 8, Snapshot: true}, store, true /* resume */)
//
// Resume serves completed keys from disk through the executor's Skip
// hook and runs only the remainder; because entries are reassembled in
// plan order regardless of origin, the resumed report is byte-identical
// to a fresh full sweep — whichever executor filled the store, at any
// worker count, with -max-crashes early stops counting cached crashes
// in plan order.
//
// Triage then folds the store's crash records into clusters keyed by
// crash-stack hash (controller.StackHash) and ranked by reach — how
// many distinct faultloads arrive at the same failure site — and
// Escalate pairs up the survivors (injected but tolerated faults) into
// two-fault plans, opening the multi-fault scenario space proportional
// to what round one actually tolerated instead of the quadratic whole.
package campaign

import (
	"lfi/internal/core"
)

// Sweep is core.RunExperiments with campaign persistence: every freshly
// executed experiment is appended to the store as its worker completes,
// and with resume set, experiments whose canonical key the store
// already holds are served from disk instead of re-run. A nil store
// degrades to a plain sweep. The rendered report is byte-identical to a
// fresh full sweep either way.
//
// The store hooks compose with any Skip/OnResult already present in
// opts: caller hooks run after the store's (a caller Skip is consulted
// only for keys the store has not completed).
func Sweep(cfg core.CampaignConfig, exps []core.Experiment, budget uint64, opts core.SweepOptions, store *Store, resume bool) (*core.SweepResult, error) {
	if store != nil {
		// The store is pinned to one campaign identity (target binaries,
		// engine, budget): results recorded for a different one must not
		// be served or mixed in.
		if err := store.EnsureManifest(manifestFor(cfg, budget)); err != nil {
			return nil, err
		}
		if resume {
			done := store.Completed()
			callerSkip := opts.Skip
			opts.Skip = func(exp *core.Experiment) (core.SweepEntry, bool) {
				if rec, ok := done[exp.Key()]; ok {
					return rec.Entry(), true
				}
				if callerSkip != nil {
					return callerSkip(exp)
				}
				return core.SweepEntry{}, false
			}
		}
		callerOn := opts.OnResult
		opts.OnResult = func(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) {
			store.Append(NewRecord(exp, entry, rep))
			if callerOn != nil {
				callerOn(exp, entry, rep)
			}
		}
	}
	res, err := core.RunExperiments(cfg, exps, budget, opts)
	if err != nil {
		return nil, err
	}
	if store != nil {
		if serr := store.Err(); serr != nil {
			return nil, serr
		}
	}
	return res, nil
}
