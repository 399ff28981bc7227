package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"lfi/internal/campaign"
	"lfi/internal/core"
	"lfi/internal/scenario"
)

// runTraced measures the per-layer metrics of one workload. Until the
// run length has elapsed it repeats, per target: one sequential sweep
// through the traced replica, one real one-worker sweep (the replica's
// reference for executor glue) and one real two-worker sweep with the
// timestamp hooks (worker utilisation, memo and Go runtime counters).
// Workloads without a store also write the replica's records to a fresh
// store, so the campaign layer is measured on every record shape. The
// replica, both real sweeps and the fresh-spawn oracle must agree.
func runTraced(w workload, seed int64, corpusFuncs int, length time.Duration, outDir string) (*result, error) {
	tr := newTracer()
	tr.keep = true
	targets, err := w.build(seed, corpusFuncs, tr)
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", w.name, err)
	}
	for _, t := range targets {
		for i := range t.exps {
			sp := tr.begin("scenario.compile")
			_, err := scenario.Compile(t.exps[i].Plan, t.cfg.Profiles)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}

	dir := filepath.Join(outDir, fmt.Sprintf("trace-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	var seedStore string
	if w.resume {
		seedStore = filepath.Join(dir, "killed")
		if err := fillStore(targets[0], seedStore); err != nil {
			return nil, err
		}
	}
	runDir := filepath.Join(dir, "run")

	var (
		reps       int
		real1Wall  time.Duration
		real2Wall  time.Duration
		busy       time.Duration
		committed  int
		served     int
		memo       core.MemoStats
		allocBytes uint64
		gcCPU      float64
		totalCPU   float64
	)
	res := &result{}
	wants := make([][]core.SweepEntry, len(targets))
	for i, t := range targets {
		if wants[i], err = oracle(t); err != nil {
			return nil, err
		}
	}
	for begin := time.Now(); reps == 0 || time.Since(begin) < length; reps++ {
		for i, t := range targets {
			got, err := traceReplica(tr, t, seedStore, runDir)
			if err != nil {
				return nil, err
			}
			checkEntries(res, wants[i], got)

			run1, err := realSweep(t, 1, seedStore, runDir, false)
			if err != nil {
				return nil, err
			}
			real1Wall += run1.wall
			checkEntries(res, wants[i], run1.res.Entries)

			var before runtime.MemStats
			runtime.ReadMemStats(&before)
			gc0, total0 := cpuSeconds()
			run2, err := realSweep(t, workers, seedStore, runDir, true)
			if err != nil {
				return nil, err
			}
			gc1, total1 := cpuSeconds()
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			checkEntries(res, wants[i], run2.res.Entries)

			real2Wall += run2.wall
			for _, d := range run2.lat {
				busy += d
			}
			committed += len(run2.res.Entries)
			served += run2.served
			if m := run2.res.Memo; m != nil {
				memo.Prefixes += m.Prefixes
				memo.Restored += m.Restored
				memo.Terminal += m.Terminal
				memo.PeakBytes = max(memo.PeakBytes, m.PeakBytes)
			}
			allocBytes += after.TotalAlloc - before.TotalAlloc
			gcCPU += gc1 - gc0
			totalCPU += total1 - total0
		}
		tr.keep = false
	}
	res.Correct, res.reps = res.Failed == 0, reps
	if err := tr.write(outDir, w.name, seed); err != nil {
		return nil, err
	}

	per := func(x, n float64) float64 {
		if n == 0 {
			return 0
		}
		return x / n
	}
	sweeps := float64(tr.count["replica.sweep"])
	exec := tr.vals["exec.experiments"]
	prefixes := tr.vals["core.prefixes"]
	ns := func(name string) float64 { return float64(tr.self[name]) }
	roots := tr.rootDur["replica.sweep"] + tr.rootDur["replica.persist"]
	const mib = 1 << 20
	res.Metrics = map[string]metric{
		"build.compile_ms":                   {tr.ms("build.compile"), "ms"},
		"build.profile_ms":                   {tr.ms("build.profile"), "ms"},
		"profiler.states":                    {tr.vals["profiler.states"], "count"},
		"core.plan_ms":                       {tr.ms("core.plan"), "ms"},
		"scenario.compile_us_per_plan":       {per(tr.us("scenario.compile"), float64(tr.count["scenario.compile"])), "us"},
		"vm.load_ms":                         {per(tr.ms("vm.load"), sweeps), "ms"},
		"vm.snapshot_ms":                     {per(tr.ms("vm.snapshot"), sweeps), "ms"},
		"vm.snapshot_mb":                     {per(tr.vals["vm.snapshot_bytes"], sweeps) / mib, "MB"},
		"vm.restore_us_per_exp":              {per(tr.us("vm.restore"), exec), "us"},
		"vm.run_us_per_exp":                  {per(tr.us("vm.run"), exec), "us"},
		"vm.cycles_per_exp":                  {per(tr.vals["vm.run_cycles"], exec), "count"},
		"vm.ns_per_cycle":                    {per(ns("vm.run"), tr.vals["vm.run_cycles"]), "ns"},
		"vm.prefix_ms_per_group":             {per(tr.ms("vm.prefix"), prefixes), "ms"},
		"vm.prefix_ns_per_cycle":             {per(ns("vm.prefix"), tr.vals["vm.prefix_cycles"]), "ns"},
		"vm.midsnap_us_per_group":            {per(tr.us("vm.midsnap"), prefixes), "us"},
		"controller.stubset_ms":              {per(tr.ms("controller.stubset"), sweeps), "ms"},
		"controller.stubs":                   {per(tr.vals["controller.stubs"], sweeps), "count"},
		"controller.bind_us_per_exp":         {per(tr.us("controller.bind"), exec), "us"},
		"controller.checkpoint_us_per_group": {per(tr.us("controller.checkpoint"), prefixes), "us"},
		"controller.report_us_per_exp":       {per(tr.us("controller.report"), exec), "us"},
		"controller.injections_per_exp":      {per(tr.vals["controller.injections"], exec), "count"},
		"core.first_dispatch_ms":             {per(tr.vals["core.first_dispatch_ns"]/1e6, sweeps), "ms"},
		"core.classify_us_per_exp":           {per(tr.us("core.report")+tr.us("core.classify"), exec), "us"},
		"core.worker_busy_frac":              {per(float64(busy), float64(workers)*float64(real2Wall)), "frac"},
		"core.glue_frac":                     {1 - per(float64(tr.layerSelf["replica.sweep"]), float64(real1Wall)), "frac"},
		"core.memo_prefixes":                 {per(float64(memo.Prefixes), float64(reps)), "count"},
		"core.memo_restored":                 {per(float64(memo.Restored), float64(reps)), "count"},
		"core.memo_terminal":                 {per(float64(memo.Terminal), float64(reps)), "count"},
		"core.memo_peak_mb":                  {float64(memo.PeakBytes) / mib, "MB"},
		"core.served_frac":                   {per(float64(served), float64(committed)), "frac"},
		"campaign.open_ms":                   {per(tr.ms("campaign.open"), float64(tr.count["campaign.open"])), "ms"},
		"campaign.append_us_per_rec":         {per(tr.us("campaign.append"), float64(tr.count["campaign.append"])), "us"},
		"campaign.triage_ms":                 {per(tr.ms("campaign.triage"), float64(tr.count["campaign.triage"])), "ms"},
		"go.alloc_kb_per_exp":                {per(float64(allocBytes)/1024, float64(committed)), "KB"},
		"go.gc_cpu_frac":                     {per(gcCPU, totalCPU), "frac"},
		"trace.coverage_frac":                {per(float64(tr.layerSelf["replica.sweep"]+tr.layerSelf["replica.persist"]), float64(roots)), "frac"},
	}
	fmt.Printf("%s: %d traced repetitions of %d sweep(s); spans of the first in %s\n",
		w.name, reps, len(targets), filepath.Join(outDir, "trace-"+w.name+".json"))
	return res, nil
}

// traceReplica runs one target through the traced replica under a
// replica.sweep root span. A resumed workload opens a fresh copy of the
// killed campaign's store, serves its completed keys, appends the rest
// and triages, as campaign.Sweep does; any other workload writes its
// records to a fresh store afterwards under a replica.persist root.
func traceReplica(tr *tracer, t target, seedStore, runDir string) ([]core.SweepEntry, error) {
	type rec struct {
		exp   *core.Experiment
		entry core.SweepEntry
		rep   *core.Report
	}
	var recs []rec
	onResult := func(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) {
		recs = append(recs, rec{exp, entry, rep})
	}

	if seedStore == "" {
		root := tr.begin("replica.sweep")
		entries, err := replicaSweep(tr, t, nil, onResult)
		if err != nil {
			return nil, err
		}
		tr.end(root)

		if err := os.RemoveAll(runDir); err != nil {
			return nil, err
		}
		root = tr.begin("replica.persist")
		store, err := openStore(tr, runDir, t)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			sp := tr.begin("campaign.append")
			store.Append(campaign.NewRecord(r.exp, r.entry, r.rep))
			tr.end(sp)
		}
		if err := triageClose(tr, store); err != nil {
			return nil, err
		}
		tr.end(root)
		return entries, nil
	}

	if err := copyStore(seedStore, runDir); err != nil {
		return nil, err
	}
	root := tr.begin("replica.sweep")
	store, err := openStore(tr, runDir, t)
	if err != nil {
		return nil, err
	}
	sp := tr.begin("campaign.completed")
	done := store.Completed()
	tr.end(sp)
	skip := func(exp *core.Experiment) (core.SweepEntry, bool) {
		sp := tr.begin("campaign.lookup")
		defer tr.end(sp)
		if r, ok := done[exp.Key()]; ok {
			return r.Entry(), true
		}
		return core.SweepEntry{}, false
	}
	onAppend := func(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) {
		sp := tr.begin("campaign.append")
		store.Append(campaign.NewRecord(exp, entry, rep))
		tr.end(sp)
	}
	entries, err := replicaSweep(tr, t, skip, onAppend)
	if err != nil {
		store.Close()
		return nil, err
	}
	if err := triageClose(tr, store); err != nil {
		return nil, err
	}
	tr.end(root)
	return entries, nil
}

// openStore opens a campaign store and claims it for the target.
func openStore(tr *tracer, dir string, t target) (*campaign.Store, error) {
	sp := tr.begin("campaign.open")
	store, err := campaign.Open(dir)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("campaign.manifest")
	err = store.EnsureManifest(manifest(t.cfg))
	tr.end(sp)
	if err != nil {
		store.Close()
		return nil, err
	}
	return store, nil
}

func triageClose(tr *tracer, store *campaign.Store) error {
	sp := tr.begin("campaign.triage")
	campaign.Triage(store.Records())
	tr.end(sp)
	sp = tr.begin("campaign.close")
	err := store.Close()
	tr.end(sp)
	return err
}

// cpuSeconds reads the Go runtime's estimate of CPU time spent in
// garbage collection and of CPU time available to the process.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}
