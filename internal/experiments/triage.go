package experiments

import (
	"fmt"
	"strings"

	"lfi/internal/campaign"
	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
)

// TriageResult is the persistent-campaign walkthrough: a sweep killed
// halfway and resumed from its store, the store's crash records deduped
// into ranked clusters, and an adaptive escalation round minted from
// the single-fault survivors.
type TriageResult struct {
	Dir     string
	Workers int
	// PartialEntries is how far the "killed" first invocation got
	// (truncated by its max-crashes budget) and ResumedEntries the full
	// matrix the resumed invocation rendered.
	PartialEntries, ResumedEntries int
	// ResumeIdentical records the acceptance check: the resumed report
	// is byte-identical to a fresh full sweep.
	ResumeIdentical bool
	First           *core.SweepResult
	Clusters        []campaign.Cluster
	Survivors       int
	Second          *core.SweepResult
}

// Triage runs the campaign-store workflow against the §2 sloppy target:
// sweep → kill at the first crash → resume byte-identically → cluster
// crashes by stack hash → escalate survivors pairwise. dir is the store
// directory (state persists there across calls — a second invocation
// resumes instantly); workers sizes the pool.
func Triage(dir string, workers int) (*TriageResult, error) {
	lc, err := libc.Compile()
	if err != nil {
		return nil, err
	}
	exe, err := minic.Compile("sloppy", sloppyAppSrc, obj.Executable)
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
	kept := p.Functions[:0]
	for _, fn := range p.Functions {
		switch fn.Name {
		case "open", "read", "close", "malloc":
			kept = append(kept, fn)
		}
	}
	p.Functions = kept
	set := profile.Set{libc.Name: p}

	cfg := core.CampaignConfig{
		Programs:   []*obj.File{lc, exe},
		Executable: "sloppy",
		Files:      map[string][]byte{"/etc/conf": []byte("mode=safe\n")},
	}
	exps := core.PlanExperiments(set)
	res := &TriageResult{Dir: dir, Workers: workers}

	// The reference: a fresh, store-less full sweep.
	fresh, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: workers, Snapshot: true})
	if err != nil {
		return nil, err
	}

	// Round one, invocation one: "killed" at the first crash, results
	// persisted live. Resume is on so a repeated walkthrough against an
	// existing store serves this phase entirely from disk.
	store, err := campaign.Open(dir)
	if err != nil {
		return nil, err
	}
	defer store.Close()
	partial, err := campaign.Sweep(cfg, exps, 0,
		core.SweepOptions{Workers: workers, MaxCrashes: 1, Snapshot: true}, store, true)
	if err != nil {
		return nil, err
	}
	res.PartialEntries = len(partial.Entries)

	// Invocation two: resume — completed keys come from the store, the
	// remainder runs, and the report must match the fresh sweep byte
	// for byte.
	first, err := campaign.Sweep(cfg, exps, 0,
		core.SweepOptions{Workers: workers, Snapshot: true}, store, true)
	if err != nil {
		return nil, err
	}
	res.First = first
	res.ResumedEntries = len(first.Entries)
	res.ResumeIdentical = first.Render() == fresh.Render()

	// Triage: cluster the store's crashes by stack hash.
	res.Clusters = campaign.Triage(store.Records())

	// Escalation: survivors (injected but tolerated) pair up into
	// two-fault plans for the second round, persisted in the same store.
	surv := campaign.Survivors(exps, store.Completed())
	res.Survivors = len(surv)
	second := campaign.Escalate(surv, set, 0)
	if len(second) > 0 {
		res.Second, err = campaign.Sweep(cfg, second, 0,
			core.SweepOptions{Workers: workers, Snapshot: true}, store, true)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render prints the walkthrough.
func (r *TriageResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "persistent campaign walkthrough (store %s, %d workers)\n", r.Dir, r.Workers)
	fmt.Fprintf(&b, "killed after %d/%d experiments; resume byte-identical to fresh: %v\n",
		r.PartialEntries, r.ResumedEntries, r.ResumeIdentical)
	b.WriteString(r.First.Render())
	b.WriteString(campaign.RenderClusters(r.Clusters))
	fmt.Fprintf(&b, "escalation: %d single-fault survivor(s)\n", r.Survivors)
	if r.Second != nil {
		b.WriteString(r.Second.Render())
	}
	return b.String()
}
