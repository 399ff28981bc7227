// Command lfi is the LFI command-line tool: build MiniC sources into SLEF
// objects, profile libraries and applications, generate fault scenarios,
// run injection campaigns, and inspect binaries.
//
// The paper's two-command workflow:
//
//	lfi profile -app app.slef -lib libc.slef -o profiles/
//	lfi run -app app.slef -lib libc.slef -plan plan.xml
//
// Supporting commands:
//
//	lfi build prog.mc -o prog.slef [-exe]
//	lfi plan -kind random -p 10 -seed 7 -profile libc.profile.xml -o plan.xml
//	lfi plan -check plan.xml [-profile libc.profile.xml]
//	lfi sweep -app app.slef -lib libc.slef -profile libc.profile.xml -j 8
//	lfi sweep ... -store campaign/ -resume -triage -escalate
//	lfi sweep -avail minidb -j 8 -store campaign/ -triage
//	lfi sweep ... -order=static   # audit-prioritised execution order
//	lfi audit -lib libc.slef [-profile libc.profile.xml] app.slef
//	lfi disasm lib.slef [-func name]
//	lfi cfg lib.slef -func name [-dot]
//	lfi demo
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lfi/internal/apps"
	"lfi/internal/audit"
	"lfi/internal/campaign"
	"lfi/internal/cfg"
	"lfi/internal/core"
	"lfi/internal/disasm"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lfi:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: lfi <build|profile|plan|run|sweep|audit|disasm|cfg|demo> ...")
	}
	switch args[0] {
	case "build":
		return cmdBuild(args[1:])
	case "profile":
		return cmdProfile(args[1:])
	case "plan":
		return cmdPlan(args[1:])
	case "run":
		return cmdRun(args[1:])
	case "sweep":
		return cmdSweep(args[1:])
	case "audit":
		return cmdAudit(args[1:])
	case "disasm":
		return cmdDisasm(args[1:])
	case "cfg":
		return cmdCFG(args[1:])
	case "demo":
		return cmdDemo(args[1:])
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func loadObj(path string) (*obj.File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return obj.Decode(b)
}

// loadPrograms loads the application plus its comma-listed libraries; the
// application is first in the returned slice.
func loadPrograms(appPath, libList string) ([]*obj.File, error) {
	appObj, err := loadObj(appPath)
	if err != nil {
		return nil, err
	}
	programs := []*obj.File{appObj}
	for _, p := range splitList(libList) {
		f, err := loadObj(p)
		if err != nil {
			return nil, err
		}
		programs = append(programs, f)
	}
	return programs, nil
}

// loadProfileSet reads comma-listed .profile.xml files into a set.
func loadProfileSet(pathList string) (profile.Set, error) {
	set := make(profile.Set)
	for _, p := range splitList(pathList) {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		pr, err := profile.Unmarshal(b)
		if err != nil {
			return nil, err
		}
		set[pr.Library] = pr
	}
	return set, nil
}

func cmdBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ContinueOnError)
	out := fs.String("o", "", "output SLEF path (default: <name>.slef)")
	exe := fs.Bool("exe", false, "build an executable instead of a library")
	name := fs.String("name", "", "module name (default: source file base name)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("build: exactly one MiniC source file required")
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	mod := *name
	if mod == "" {
		mod = strings.TrimSuffix(filepath.Base(fs.Arg(0)), filepath.Ext(fs.Arg(0)))
	}
	kind := obj.Library
	if *exe {
		kind = obj.Executable
	}
	f, err := minic.Compile(mod, string(src), kind)
	if err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		dst = mod + ".slef"
	}
	if err := os.WriteFile(dst, f.Encode(), 0o644); err != nil {
		return err
	}
	fmt.Printf("built %s: %s, %d bytes text, %d exported functions\n",
		dst, f.Kind, len(f.Text), len(f.ExportedFuncs()))
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	app := fs.String("app", "", "application SLEF to profile (profiles its needed libraries)")
	libFlag := fs.String("lib", "", "comma-separated library SLEF paths")
	one := fs.String("library", "", "profile one library by module name")
	outDir := fs.String("o", ".", "output directory for .profile.xml files")
	heur := fs.Bool("heuristics", false, "enable the unsound §3.1 filtering heuristics")
	maxStates := fs.Int("max-states", 0, "per-function product-graph state budget (0 = default; exhaustion is reported per function)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	l := core.New(core.Options{Heuristics: *heur, MaxStates: *maxStates})
	if err := l.AddKernelImage(); err != nil {
		return err
	}
	for _, p := range splitList(*libFlag) {
		f, err := loadObj(p)
		if err != nil {
			return err
		}
		if err := l.AddLibrary(f); err != nil {
			return err
		}
	}
	var set profile.Set
	switch {
	case *app != "":
		f, err := loadObj(*app)
		if err != nil {
			return err
		}
		if err := l.AddLibrary(f); err != nil {
			return err
		}
		s, err := l.ProfileApplication(f.Name)
		if err != nil {
			return err
		}
		set = s
	case *one != "":
		p, err := l.ProfileLibrary(*one)
		if err != nil {
			return err
		}
		set = profile.Set{*one: p}
	default:
		return fmt.Errorf("profile: need -app or -library")
	}
	for name, p := range set {
		blob, err := p.Marshal()
		if err != nil {
			return err
		}
		dst := filepath.Join(*outDir, name+".profile.xml")
		if err := os.WriteFile(dst, blob, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d functions)\n", dst, len(p.Functions))
	}
	// Budget exhaustion is never silent: every function whose analysis
	// was cut short (MaxStates truncation, MaxDepth refusals) gets a
	// diagnostic, because its profile may be missing error codes.
	if diags := l.Diagnostics(); len(diags) > 0 {
		st := l.Stats()
		fmt.Fprintf(os.Stderr, "profile: %d analysis budget exhaustion(s) (%d truncated, %d depth-limited):\n",
			len(diags), st.Truncated, st.DepthLimited)
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
	}
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	kind := fs.String("kind", "exhaustive", "scenario kind: exhaustive|random|fileio|malloc|socket")
	prob := fs.Float64("p", 5, "injection probability in percent (random kinds)")
	seed := fs.Int64("seed", 1, "random seed")
	profiles := fs.String("profile", "", "comma-separated .profile.xml paths")
	out := fs.String("o", "plan.xml", "output plan path")
	check := fs.String("check", "", "validate and lint an existing faultload XML instead of generating one")
	app := fs.String("app", "", "application SLEF (with -check: audit its call sites into the plan's targets)")
	libFlag := fs.String("lib", "", "comma-separated library SLEF paths (with -check, audited alongside -app)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	set, err := loadProfileSet(*profiles)
	if err != nil {
		return err
	}
	if *check != "" {
		var files []*obj.File
		if *app != "" {
			if files, err = loadPrograms(*app, *libFlag); err != nil {
				return err
			}
		}
		return checkPlan(*check, set, files)
	}
	if *app != "" || *libFlag != "" {
		return fmt.Errorf("plan: -app/-lib only apply to -check")
	}
	if len(set) == 0 {
		return fmt.Errorf("plan: need at least one -profile")
	}
	var plan *scenario.Plan
	switch *kind {
	case "exhaustive":
		plan = scenario.Exhaustive(set)
	case "random":
		plan = scenario.Random(set, *prob, *seed)
	case "fileio":
		plan = scenario.LibcFileIO(set, *prob, *seed)
	case "malloc":
		plan = scenario.LibcMemAlloc(set, *prob, *seed)
	case "socket":
		plan = scenario.LibcSocketIO(set, *prob, *seed)
	default:
		return fmt.Errorf("plan: unknown kind %q", *kind)
	}
	blob, err := plan.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d triggers)\n", *out, len(plan.Triggers))
	return nil
}

// checkPlan validates, compiles and lints a faultload: parse errors and
// compile errors (bad retval/errno, malformed condition trees) fail the
// command with the offending trigger's position; lint findings are
// printed as warnings. With -profile, random triggers are checked
// against the profiles that would feed them. With -app/-lib, each
// targeted function is annotated with its caller-side audit class, so
// the author sees up front which faultloads hit call sites that never
// check the return value.
func checkPlan(path string, set profile.Set, files []*obj.File) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	plan, err := scenario.Unmarshal(b)
	if err != nil {
		return fmt.Errorf("plan: %s: %w", path, err)
	}
	cp, err := scenario.Compile(plan, set)
	if err != nil {
		return fmt.Errorf("plan: %s: %w", path, err)
	}
	fns := cp.Functions()
	fmt.Printf("%s: OK — %d triggers over %d functions (seed %d)\n",
		path, len(plan.Triggers), len(fns), plan.Seed)
	for _, fn := range fns {
		fmt.Printf("  %-20s %d trigger(s) evaluated per call\n", fn, cp.TriggerCount(fn))
	}
	// Fault-model classification: name each stateful degradation so the
	// author sees what the plan arms, then report memoizability — the
	// sweep property degradations interact with.
	for i := range plan.Triggers {
		t := &plan.Triggers[i]
		if t.Delay != nil {
			fmt.Printf("  trigger %d (%s): latency injection: +%d cycles at the call boundary per fire\n",
				i, t.Function, t.Delay.Cycles)
		}
		if t.Exhaust != nil {
			switch t.Exhaust.Resource {
			case scenario.ResourceDisk:
				fmt.Printf("  trigger %d (%s): disk exhaustion: ENOSPC after %d post-fire bytes\n",
					i, t.Function, t.Exhaust.After)
			case scenario.ResourceFDs:
				fmt.Printf("  trigger %d (%s): fd pressure: EMFILE beyond %d free descriptors at fire\n",
					i, t.Function, t.Exhaust.Slots)
			}
		}
	}
	// Fire phase: whether the first injection can hit initialization
	// paths or only lands on a guest already serving traffic — the
	// distinction availability sweeps arrange with <calls after> windows.
	phase, evidence := cp.FirePhase()
	switch phase {
	case scenario.PhaseNever:
		fmt.Println("fire phase: never (no triggers)")
	default:
		fmt.Printf("fire phase: %s (%s)\n", phase, evidence)
	}
	if len(files) > 0 {
		res, err := audit.Analyze(files, fns, audit.Options{})
		if err != nil {
			return fmt.Errorf("plan: audit: %w", err)
		}
		classes := res.Classes()
		for _, fn := range fns {
			class := classes[fn]
			if class == "" {
				class = "unknown" // no discovered call site
			}
			fmt.Printf("audit: %-20s %s\n", fn, class)
		}
	}
	if site, reason := cp.FirstFireSite(); reason == "" {
		fmt.Printf("memo: deterministic first-fire site %s@call %d — snapshot sweeps share the pre-fault prefix\n",
			site.Function, site.Call)
		if plan.Stateful() {
			fmt.Println("memo: stateful degradation arms at fire time: the shared prefix stays pre-fire, each suffix is private")
		}
	} else {
		fmt.Printf("memo: non-memoizable (%s): snapshot sweeps fall back to the entry snapshot\n", reason)
	}
	if warns := scenario.Lint(plan, set); len(warns) > 0 {
		fmt.Println("warnings:")
		for _, w := range warns {
			fmt.Printf("  %s\n", w)
		}
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	app := fs.String("app", "", "application SLEF to run")
	libFlag := fs.String("lib", "", "comma-separated library SLEF paths")
	planPath := fs.String("plan", "", "fault scenario XML (omit for a clean run)")
	profiles := fs.String("profile", "", "comma-separated .profile.xml paths")
	logPath := fs.String("log", "", "write the injection log here")
	replayPath := fs.String("replay", "", "write the replay script here")
	budget := fs.Uint64("budget", 500_000_000, "cycle budget (0 = unlimited)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *app == "" {
		return fmt.Errorf("run: -app is required")
	}
	programs, err := loadPrograms(*app, *libFlag)
	if err != nil {
		return err
	}
	cfgC := core.CampaignConfig{Programs: programs, Executable: programs[0].Name}
	if *planPath != "" {
		b, err := os.ReadFile(*planPath)
		if err != nil {
			return err
		}
		plan, err := scenario.Unmarshal(b)
		if err != nil {
			return err
		}
		cfgC.Plan = plan
		set, err := loadProfileSet(*profiles)
		if err != nil {
			return err
		}
		cfgC.Profiles = set
	}
	c, err := core.NewCampaign(cfgC)
	if err != nil {
		return err
	}
	rep, err := c.Run(*budget)
	if err != nil {
		return err
	}
	fmt.Printf("exit: code=%d signal=%d deadlocked=%v cycles=%d injections=%d\n",
		rep.Status.Code, rep.Status.Signal, rep.Deadlocked, rep.Cycles, len(rep.Injections))
	if *logPath != "" && c.Controller() != nil {
		f, err := os.Create(*logPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := c.Controller().WriteLog(f); err != nil {
			return err
		}
	}
	if *replayPath != "" && rep.ReplayPlan != nil {
		blob, err := rep.ReplayPlan.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*replayPath, blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// cmdSweep runs the §2 robustness benchmark: one fault-injection
// campaign per (function, error code) in the profiles, distributed over a
// worker pool, rendered as the per-fault outcome matrix. Profiles may be
// loaded from -profile files or derived on the fly by profiling the
// application's libraries. Every run restores from one post-load
// snapshot of the target with the sweep's stub surface preloaded, and
// experiments sharing a trigger site share its pre-fault prefix
// (core.SweepOptions.Snapshot with memoization on); experiments on
// functions the baseline never calls are served from the baseline.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	app := fs.String("app", "", "application SLEF to sweep")
	libFlag := fs.String("lib", "", "comma-separated library SLEF paths")
	profiles := fs.String("profile", "", "comma-separated .profile.xml paths (omit to profile -lib in-process)")
	jobs := fs.Int("j", 0, "parallel workers (0 = GOMAXPROCS)")
	maxCrashes := fs.Int("max-crashes", 0, "stop after this many crash outcomes (0 = run the full matrix)")
	order := fs.String("order", "default", "execution order: default (plan order) or static (caller-side audit fronts unchecked targets; full-sweep report stays byte-identical)")
	budget := fs.Uint64("budget", 0, "per-run cycle budget (0 = default)")
	progress := fs.Bool("progress", false, "print live progress to stderr")
	heur := fs.Bool("heuristics", false, "enable the §3.1 filtering heuristics for in-process profiling")
	faults := fs.String("faults", "errno", "fault models to sweep: errno (error-return stores), degradation (latency + resource exhaustion), or all")
	avail := fs.String("avail", "", "traffic-driven availability sweep against a built-in server guest (minidb, minidb-nr, httpd, httpd-mp); replaces -app/-lib/-profile/-faults/-heuristics")
	storeDir := fs.String("store", "", "persistent campaign store directory (append-only JSONL, written live)")
	resume := fs.Bool("resume", false, "skip experiments already completed in -store (report stays byte-identical)")
	triage := fs.Bool("triage", false, "after the sweep, print crash clusters deduped by stack hash (needs -store)")
	escalate := fs.Bool("escalate", false, "run a second round of pairwise multi-fault plans minted from single-fault survivors (needs -store)")
	maxPairs := fs.Int("max-pairs", 0, "cap on escalated pairs (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *avail != "" {
		// The availability target brings its own programs, profile and
		// fault matrix; an explicitly passed flag it would replace is a
		// contradiction, not something to ignore silently.
		var replaced []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "app", "lib", "profile", "faults", "heuristics":
				replaced = append(replaced, "-"+f.Name)
			}
		})
		if len(replaced) > 0 {
			return fmt.Errorf("sweep: -avail replaces %s", strings.Join(replaced, ", "))
		}
	}
	if *app == "" && *avail == "" {
		return fmt.Errorf("sweep: -app is required (or -avail <server>)")
	}

	var set profile.Set
	var cfgC core.CampaignConfig
	if *avail != "" {
		var err error
		if cfgC, set, err = apps.AvailCampaign(*avail); err != nil {
			return fmt.Errorf("sweep: -avail: %w", err)
		}
	} else {
		programs, err := loadPrograms(*app, *libFlag)
		if err != nil {
			return err
		}
		if *profiles != "" {
			if set, err = loadProfileSet(*profiles); err != nil {
				return err
			}
		} else {
			l := core.New(core.Options{Heuristics: *heur})
			if err := l.AddKernelImage(); err != nil {
				return err
			}
			for _, f := range programs {
				if err := l.AddLibrary(f); err != nil {
					return err
				}
			}
			if set, err = l.ProfileApplication(programs[0].Name); err != nil {
				return err
			}
		}
		cfgC = core.CampaignConfig{
			Programs:   programs,
			Executable: programs[0].Name,
		}
	}
	if len(set) == 0 {
		return fmt.Errorf("sweep: no fault profiles")
	}

	opts := core.SweepOptions{Workers: *jobs, MaxCrashes: *maxCrashes, Snapshot: true}
	if *progress {
		opts.Progress = func(p core.SweepProgress) {
			fmt.Fprintln(os.Stderr, p.String())
		}
	}

	var store *campaign.Store
	if *storeDir != "" {
		var err error
		if store, err = campaign.Open(*storeDir); err != nil {
			return err
		}
		defer store.Close()
	} else if *resume || *triage || *escalate {
		return fmt.Errorf("sweep: -resume, -triage and -escalate need -store")
	}

	var exps []core.Experiment
	switch {
	case *avail != "":
		// The availability matrix carries its own fault models (one-shot
		// errno + delay + exhaustion), windowed mid-steady-state.
		exps = core.AvailabilityExperiments(set, apps.AvailAfter)
	case *faults == "errno":
		exps = core.PlanExperiments(set)
	case *faults == "degradation":
		exps = core.DegradationExperiments(set)
	case *faults == "all":
		exps = append(core.PlanExperiments(set), core.DegradationExperiments(set)...)
	default:
		return fmt.Errorf("sweep: unknown -faults %q (want errno, degradation or all)", *faults)
	}
	switch *order {
	case "default":
	case "static":
		// Audit the guest binaries for the profiled targets, stamp each
		// experiment with its target's class (persisted by -store,
		// clustered by -triage), and run the statically fragile ones
		// first. Reassembly keeps the full-sweep report byte-identical;
		// only -max-crashes early stops observe the new order.
		ares, err := audit.Analyze(cfgC.Programs, auditTargets(set), audit.Options{})
		if err != nil {
			return fmt.Errorf("sweep: audit: %w", err)
		}
		classes := ares.Classes()
		core.AnnotateAudit(exps, classes)
		opts.ExecOrder = core.StaticOrder(exps, classes)
	default:
		return fmt.Errorf("sweep: unknown -order %q (want default or static)", *order)
	}
	res, err := campaign.Sweep(cfgC, exps, *budget, opts, store, *resume)
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	if res.Memo != nil {
		fmt.Fprintln(os.Stderr, res.Memo.String())
	}

	if *triage {
		fmt.Print(campaign.RenderClusters(campaign.Triage(store.Records())))
	}
	if *escalate {
		surv := campaign.Survivors(exps, store.Completed())
		second := campaign.Escalate(surv, set, *maxPairs)
		fmt.Printf("escalation: %d single-fault survivor(s) -> %d pairwise plan(s)\n",
			len(surv), len(second))
		if len(second) > 0 {
			// The escalated plan is a different experiment list; the
			// round-one permutation does not apply to it.
			opts.ExecOrder = nil
			res2, err := campaign.Sweep(cfgC, second, *budget, opts, store, *resume)
			if err != nil {
				return err
			}
			fmt.Print(res2.Render())
			if res2.Memo != nil {
				fmt.Fprintln(os.Stderr, res2.Memo.String())
			}
			if *triage {
				fmt.Print(campaign.RenderClusters(campaign.Triage(store.Records())))
			}
		}
	}
	return nil
}

// auditTargets collects the function names a profile set covers — the
// functions a sweep would inject into, and therefore the ones whose
// call sites the audit should classify.
func auditTargets(set profile.Set) []string {
	var targets []string
	for _, p := range set {
		for _, fn := range p.Functions {
			targets = append(targets, fn.Name)
		}
	}
	return targets
}

// cmdAudit runs the caller-side error-handling audit: a static forward
// taint walk from every call site into a profiled (or imported)
// function, classifying whether the caller checks the return value. A
// nonzero exit on unchecked sites makes it a CI lint; the same
// classification drives `lfi sweep -order=static`.
func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ContinueOnError)
	libFlag := fs.String("lib", "", "comma-separated library SLEF paths audited alongside the positional binaries")
	profiles := fs.String("profile", "", "comma-separated .profile.xml paths restricting the audited targets (default: every function the binaries import)")
	maxStates := fs.Int("max-states", 0, "per-site taint-walk state budget (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("audit: at least one SLEF binary required")
	}
	var files []*obj.File
	for _, p := range append(append([]string(nil), fs.Args()...), splitList(*libFlag)...) {
		f, err := loadObj(p)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	var targets []string
	if *profiles != "" {
		set, err := loadProfileSet(*profiles)
		if err != nil {
			return err
		}
		targets = auditTargets(set)
	} else {
		// No profile restriction: audit every cross-module call (the
		// imports) and every intra-module call to an exported function
		// (a library's internal use of its own API, e.g. puts_fd
		// calling write).
		for _, f := range files {
			targets = append(targets, f.Imports...)
			for _, sym := range f.ExportedFuncs() {
				targets = append(targets, sym.Name)
			}
		}
	}
	res, err := audit.Analyze(files, targets, audit.Options{MaxStates: *maxStates})
	if err != nil {
		return err
	}
	fmt.Print(res.Render())
	if n := len(res.Unchecked()); n > 0 {
		return fmt.Errorf("audit: %d unchecked call site(s)", n)
	}
	return nil
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ContinueOnError)
	fn := fs.String("func", "", "limit to one function")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("disasm: one SLEF path required")
	}
	f, err := loadObj(fs.Arg(0))
	if err != nil {
		return err
	}
	p, err := disasm.Disassemble(f)
	if err != nil {
		return err
	}
	if *fn != "" {
		sym, ok := f.LookupExport(*fn)
		if !ok {
			if sym, ok = f.Lookup(*fn); !ok {
				return fmt.Errorf("no symbol %q", *fn)
			}
		}
		fmt.Print(p.Render(sym.Off, sym.Off+sym.Size))
		return nil
	}
	fmt.Print(p.Render(0, int32(len(f.Text))))
	return nil
}

func cmdCFG(args []string) error {
	fs := flag.NewFlagSet("cfg", flag.ContinueOnError)
	fn := fs.String("func", "", "function to graph")
	dot := fs.Bool("dot", false, "emit Graphviz dot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *fn == "" {
		return fmt.Errorf("cfg: usage: lfi cfg lib.slef -func name [-dot]")
	}
	f, err := loadObj(fs.Arg(0))
	if err != nil {
		return err
	}
	p, err := disasm.Disassemble(f)
	if err != nil {
		return err
	}
	sym, ok := f.Lookup(*fn)
	if !ok {
		return fmt.Errorf("no symbol %q", *fn)
	}
	g, err := cfg.Build(p, sym.Off)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(g.Dot(*fn))
		return nil
	}
	fmt.Printf("%s: %d blocks, %d exits, incomplete=%v\n",
		*fn, len(g.Blocks), len(g.ExitBlocks()), g.Incomplete)
	for _, b := range g.Blocks {
		succs := make([]string, 0, len(b.Succs))
		for _, s := range b.Succs {
			succs = append(succs, fmt.Sprintf("b%d", s.ID))
		}
		fmt.Printf("  b%d [%#x..%#x) -> %s\n", b.ID, b.Start, b.End, strings.Join(succs, ","))
	}
	return nil
}

// cmdDemo writes the synthetic libc and its profile to the current
// directory — a zero-setup way to try the tool.
func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	dir := fs.String("o", ".", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lc, err := libc.Compile()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*dir, "libc.slef"), lc.Encode(), 0o644); err != nil {
		return err
	}
	l := core.New(core.Options{Heuristics: true})
	if err := l.AddKernelImage(); err != nil {
		return err
	}
	if err := l.AddLibrary(lc); err != nil {
		return err
	}
	p, err := l.ProfileLibrary(libc.Name)
	if err != nil {
		return err
	}
	blob, err := p.Marshal()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(*dir, "libc.so.profile.xml"), blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote libc.slef and libc.so.profile.xml (%d functions) to %s\n", len(p.Functions), *dir)
	return nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
