// Package lfi is a reproduction of "LFI: A Practical and General
// Library-Level Fault Injector" (Marinescu & Candea, DSN 2009) as a Go
// library, complete with the synthetic platform substrate (SIA-32 ISA,
// assembler, SLEF object format, MiniC compiler, dynamic-linking VM and
// kernel) on which the profiler and controller operate, the evaluation
// corpus, and one benchmark harness per table and figure of the paper.
//
// Fault-injection campaigns — the product of libraries × functions ×
// error codes that §2 sweeps over a workload — run on a parallel campaign
// scheduler (core.RunExperiments): the experiment matrix is generated
// deterministically, distributed over a pool of workers each running
// on a private vm.System, and reassembled in plan order, so the
// rendered robustness report is byte-identical at any worker count.
// `lfi sweep -j N` and `lfi-bench -j N` expose the pool size; -max-crashes
// stops a sweep at the N-th crash for triage.
//
// Sweeps run on one production executor, a fork-server snapshot
// runtime (ZOFI-style): the whole load pipeline — text copy,
// relocation, instruction decode, symbol maps, stub synthesis for the
// union of intercepted functions — executes once into an immutable
// vm.Snapshot, and every experiment (baseline included) restores from
// it copy-on-write, binding only its own compiled faultload; decoded
// instructions, patched text and symbol tables are shared read-only by
// all restores, and writable pages are shared until first write (see
// below). The fresh-spawn oracle (core.SweepOptions{}) rebuilds the
// same template for every run, so cycle counts, injection logs and
// reports are equal on both by construction (TestSweepSnapshotIdentical;
// the campaign benchmark in bench/ measures production's throughput).
// A single run — core.Campaign, behind `lfi run` and the paper's
// experiments — is that template built fresh for one experiment, its
// stub surface the functions its own faultload names, so it reports
// exactly what a one-experiment oracle sweep does
// (TestCampaignIsOneExperimentOracle); no other path assembles a guest.
// The production executor also
// skips experiments whose functions the baseline never calls through
// their stubs (the stubs' static call counters, §5.1, tell): such a run
// can only replay the baseline, which is committed in its place. And
// the baseline's fault-free run is every experiment's run up to the
// first call of a function its faultload names, so the baseline
// freezes itself along the way (the memo ladder, below) and every
// experiment starts from the nearest such snapshot instead of the
// entry.
//
// # Persistent campaigns
//
// Campaigns are durable (internal/campaign): sweep workers append each
// completed experiment to an on-disk JSONL store as they finish — one
// self-contained record per line carrying the faultload's canonical key
// (scenario.CanonicalKey), outcome, exit status, injection-log digest,
// crash stack + hash, and cycle/coverage summary — so a campaign killed
// anywhere (the store recovers a torn trailing line on reopen) resumes
// from exactly what it had: `lfi sweep -store d -resume` serves
// completed keys from disk, runs only the remainder, and renders a
// report byte-identical to a fresh full sweep at any worker count,
// -max-crashes early stops included; a store filled by the fresh-spawn
// oracle holds the same records as one filled by production. On top of the store,
// `-triage` dedups crash records into clusters keyed by crash-stack
// hash (controller.StackHash) and ranked by reach — how many distinct
// faultloads arrive at the same failure site — and `-escalate` mints an
// adaptive second round: single-fault survivors (injected but
// tolerated) pair into two-fault plans (scenario.Pairwise), opening the
// multi-fault space proportionally to what round one tolerated rather
// than quadratically (experiments.Triage, examples/triage). Injection
// fidelity is part of the same contract: errno stores resolve against
// the image owning the intercepted function (falling back to the main
// executable), and failed errno or argument-modification applications
// are marked on the InjectionRecord (ErrnoFailed, ModifyFailed) and
// re-attempted by replay scripts, so logs and replays never claim a
// faultload that was only partially applied.
//
// The §4 scenario language runs on a compile-then-evaluate trigger
// engine: scenario.Compile turns a faultload into an immutable
// CompiledPlan — triggers indexed per function, retvals/errnos/frame
// addresses pre-parsed (malformed ones are rejected with a
// position-carrying error), random-fault candidates pre-resolved — and
// per-process Evaluators carry only thin mutable state, so each
// intercepted call examines the triggers for that function instead of
// scanning the whole plan (TestEvaluatorScanIsFlat: two triggers
// scanned and nothing allocated per call, at 50 and at 500 functions).
// Campaign schedulers compile once
// and share the CompiledPlan read-only across all workers. Triggers
// compose beyond the paper's flat attributes — <and>/<or>/<not> over
// call-count windows, cycle windows, pids, probabilities, backtraces,
// plus sticky faults and cross-trigger <after-fault> state for
// correlated faultloads (experiments.Correlated, examples/correlated);
// `lfi plan -check` validates and lints a faultload.
//
// # Interception cost model
//
// Every intercepted call is charged 10 + 2*Scanned virtual cycles, where
// Scanned counts the triggers examined for the called function — the
// model behind the paper's Tables 3 and 4. A sweep's stub library covers
// the union of every function the sweep will ever intercept, so in any
// one experiment most stubs name a function the plan has no trigger
// for. Such a call costs its 10-cycle charge and no host-side work: the
// controller resolves each stub's function to the plan's dense
// function index once per bind, returns before touching any evaluator
// state for untriggered functions, keeps call counts only for triggered
// ones, and builds a backtrace (into a reused buffer) only when one of
// the function's triggers reads the stack or an injection is logged.
// Each image's dlnext targets are resolved once at relocation into an
// immutable table that snapshot restores share, and each process
// reuses one vm.HostCall, so an untriggered intercepted call allocates
// nothing (TestInterceptionAllocFree).
//
// # Execution engine
//
// Guest code runs on a block-compiled execution engine (internal/vm,
// exec.go). At load time each image's relocated, decoded text is split
// into superblocks — leaders from cfg.StreamLeaders, the profiler's
// §3.1 leader analysis applied to the whole stream — and the compiled
// form is immutable, so snapshot restores share it with the template
// for free. Superblocks chain: direct branches carry compile-time
// links to their in-image targets, and the dispatch loop follows
// links (and straight-line fall-through) within the remaining time
// slice without leaving the image, so a branchy guest resolves its
// image and materialises its PC once per slice instead of once per
// block; the links are static per immutable image and never cross a
// slice boundary, so there is nothing to invalidate. Transfers whose
// target is only known at run time continue the loop too: after a
// call (a host call included), a return, a computed jump or a
// syscall that completed, dispatch stays in the loop when the new PC
// is an aligned address inside the same image and the slice budget
// allows, re-entering where a fresh dispatch would — through the
// RunStops stop check and the slice split — so a guest spinning
// on a failing syscall behind in-image calls never leaves the loop
// there. Cross-image transfers (the DlNext tail jump of an
// interceptor stub, calls into another library) and blocked syscalls
// return to the slice loop, which resolves the PC afresh. Each image's
// direct call targets carry a shadow-stack label resolved once at
// relocation, so a call pushes its Frame without an image or symbol
// search. Cycles (Proc.Cycles, System.TotalCycles) and
// instruction coverage are accumulated per block and folded in at
// block exit, before any control transfer, and a per-process two-entry
// read/write segment-window cache gives loads, stores and stack
// push/pop direct little-endian slice access without the segment scan.
// On a miss the slow path consults four recently used windows before
// searching the segments, enough for a loop touching its stack, its
// data, a library's data and TLS (all windows are dropped when Brk
// moves the heap's backing array, a CoW page's read windows when the
// page is privatized; restores start cold). The block engine measured
// 2.5-3.3x the instruction throughput of the per-instruction
// interpreter, depending on the kernel (CHANGES.md, "Block-compiled
// execution engine"), which is why
// that interpreter remains only as the test oracle
// (vm.Options.Engine = vm.EngineStep).
//
// The block engine also fast-forwards provable spins (vm/spin.go); the
// step engine never does. A process that retries a failing syscall
// while every other live process is blocked — the availability
// matrix's accept wedges — keeps its guest-visible result for the rest
// of the budget, and only monotone counters move. When a syscall fails
// again at the PC, stack pointer, number and result of the process's
// previous failure, one period is replayed on the reference
// interpreter with every value tracked, up to the next failure there.
// The spin is proved when the process is back with the same registers
// it read, flags and call stack, the kernel equals its snapshot (it
// has no clock, so a blocked peer cannot wake), each blocked peer only
// retried once per round, every guest byte written is unchanged but
// the stubs' __cnt_ words (and copies of them, which reach no compare,
// address or argument), and each host function called proves that its
// calls repeat (vm.HostSpin; the trigger evaluator proves it when the
// period injected nothing and every trigger on the functions called
// has spent itself — a fired one-shot, or an inject= call in the
// past). The engine then skips whole multiples of lcm(time slice,
// period) instructions, keeping the slice phase the budget check
// depends on, as many as keep TotalCycles below the budget, adds each
// counter's delta (process and peer cycles, TotalCycles, counter words,
// evaluator counts) and runs the tail normally: the budget stops the
// run on the same instruction and cycle as on the step engine. Only
// Run with a budget jumps; RunUntil, RunStops and the step engine do
// not. One accept wedge of a minidb sweep took 1.71–1.78 s and now
// takes about 0.07–0.09 s (one worker, 2-CPU x86-64); its stored
// Cycles are unchanged.
//
// # Copy-on-write restores
//
// Snapshot restores are page-granular copy-on-write (internal/vm,
// cow.go): Restore hands each writable segment a page table of slice
// headers aliasing the snapshot's immutable template pages, with an
// all-clean dirty set — O(pages) headers instead of O(writable bytes)
// copied. The write barrier lives in the memory slow paths: the
// segment-window cache only ever hands out write windows over private
// pages, so the block engine's inline store fast path is barrier-free
// by construction, and any write reaching a shared page (slow path,
// WriteBytes, errno stores, stub patching) privatizes that one page —
// copy, mark dirty, drop any read window aliasing it. "Reset to
// shared" is free: the next Restore mints a fresh page table off the
// same template, abandoning the dirty pages to the collector. Snapshot
// of a restored system shares pages the same way: the snapshot takes
// over the pages the system privatized, and the system copies a page
// again on its next write, so a mid-execution snapshot costs the pages
// written since the last one, not the writable segments. Brk
// flattens a CoW heap before resizing. Copy-on-write is the only
// restore kind; the oracle is a fresh spawn. The contract is that
// sharing is never observable: restore-isolation tests interleave
// writes across sibling restores and require each to stay
// bit-identical to a fresh spawn while untouched pages stay
// pointer-equal to the template (TestRestoreCoWIsolation),
// FuzzRestoreCoW drives random write/brk/run/restore schedules against
// the same oracle, TestSweepEngineDifferential requires byte-identical
// sweep reports from both, and TestSweepSnapshotIdentical requires
// equal per-experiment cycle counts and injection logs from the
// fresh-spawn oracle and CoW restores at any worker count.
// Copy-on-write measured 9.6x per restore+run over the deep-copy
// restore it replaced, on a low-dirty-ratio guest (CHANGES.md,
// "Copy-on-write snapshot restore").
//
// # Prefix memoization
//
// The snapshot executor additionally shares the pre-fault prefix
// across experiments (internal/core, memo.go). A static analyzer
// (scenario.FirstFireSite) conservatively maps each compiled faultload
// to the deterministic (function, call-N) site where its fault first
// becomes fireable: single-function plans whose triggers carry no
// probability, sticky, pid, after-fault or cycles conditions resolve
// to the earliest call any trigger can fire at; everything else is
// non-memoizable and runs whole from the latest rung before its
// functions' first call (scenario.Lint names the blocking condition,
// surfaced by `lfi plan -check`). Experiments are grouped by site — in an exhaustive errno
// sweep every errno variant of one (function, call) cell lands in the
// same group — and the clean baseline freezes every group's prefix on
// its way: the memo ladder. Up to a site, a memoizable experiment's run
// differs from the pass-through baseline's in two things only, and the
// stubs' static call counters (§5.1) fix both: each process's
// evaluator has counted the calls to the site's function, and each of
// those calls cost 2 cycles more per trigger on that function. So the
// baseline arms the stub entry of every function with a group as one
// vm.System.RunStops stop set, aimed at the next site on each
// function, and at the first arrival where the arriving process's
// counter reads N−1 and no process's reads N, it freezes a snapshot (a
// rung) — registers, CoW page tables, kernel FS/FD/pipe state, cycle
// counters and the mid-round scheduler position — and runs on;
// successive rungs share every page neither interval wrote. A member
// restores its site's rung and binds a fresh controller that
// controller.Resume catches up from the counters: evaluator call
// counts seeded per process, the skipped scan cycles charged to each
// process and to the system total. If that corrected total already
// reaches the cycle budget, the plan's run could have exhausted it
// before the site, and the member starts lower instead. At every stop
// the baseline also reads the counters of the functions not yet
// called: each function anchors on the latest rung minted before its
// first call, and since calls to functions a faultload does not name
// cost the fixed dispatch charge and touch no evaluator, every other
// run — singletons, non-memoizable plans, members of a group whose
// site the baseline never reached, and budget fallbacks — starts from
// the latest live rung at or below its functions' earliest anchor,
// exactly as if from the entry (rung 0). Every rung is sealed before
// the first experiment runs, under a byte budget
// (256 MiB; Snapshot.Footprint is the unit): a
// rung past it is not minted, and a rung lives until every experiment
// starting from it is committed. Soundness rests on determinism:
// same-site plans evaluate calls 1..N-1 identically (no injections, no
// random draws — random retvals draw at fire time — and per-call cycle
// charges that depend only on the trigger count), so memoization is
// never observable: TestSweepMemoIdentical and its siblings require
// byte-identical reports and store records between memoized sweeps
// and the fresh-spawn oracle across engines, worker counts, a memo
// budget that mints no rung, cycle budgets that force the fallback,
// -max-crashes and -resume. `lfi sweep` always memoizes: on a
// heavy-startup exhaustive matrix the memo ladder measured 17.6x over
// running every experiment from the entry (10.7 vs 189 ms per sweep,
// medians of 10 alternating runs on a 2-CPU x86-64 box; CHANGES.md,
// "Memo ladder"). Starting singletons and
// non-memoizable plans from their anchor rung took the paper-scale
// errno sweep of the campaign benchmark (errno-corpus) from 4.7k to
// 8.3k experiments per second (medians of 10 alternating 10-s pairs,
// same box), at ~6% more resident memory: a rung now lives until the
// last experiment anchored on it is committed.
//
// # Fault models
//
// Beyond error-return stores (a retval + errno substituted at the call
// boundary — the paper's §2/§4 model), the scenario grammar carries
// stateful degradation fault models that change what the kernel does
// after the trigger fires:
//
//   - <delay cycles="N"> charges N guest cycles at the intercepted call
//     boundary before the original (or the errno return) proceeds.
//     Cycle budgets, <cycles> windows and hang classification see the
//     latency honestly: a delay at or past the sweep budget models "the
//     call never returns" and classifies as a hang.
//   - <exhaust resource="disk" after="K"> arms a kernel byte quota at
//     fire time: after K more bytes are written, Write fails with
//     ENOSPC (the final write is capped short, as a filling disk
//     allows) and node-creating Open fails likewise.
//   - <exhaust resource="fds" slots="K"> shrinks the effective
//     descriptor-table headroom to K free slots at fire time; every
//     later allocation (open, dup, pipe, socket, accept — one shared
//     install path) fails with EMFILE once the shrunk cap binds.
//
// Degradation-only triggers compile to pass-through probes: the
// original call proceeds against the degraded kernel, so the observed
// failure is the kernel's own (a real short write, a real EMFILE from
// the descriptor allocator), not a substituted retval — and both models
// compose with errno faults on the same or other triggers
// (campaign.Escalate pairs exhaustion with errno survivors). The armed
// quota/limit plus written/tripped counters are part of kernel resource
// state proper: Snapshot/Restore clone them bit-identically, controller
// checkpoints carry them across memoized prefix restores, replay plans
// (controller.ReplayPlan) re-arm them at the recorded call sites, and
// campaign records persist which resources were armed and whether they
// tripped. Prefix memoization remains valid — the fire site is static
// (FirstFireSite ignores delay/exhaust payloads) and degradation acts
// only at or after the fire, so the shared prefix is strictly pre-fire
// (Plan.Stateful documents the reasoning); TestDegradationSweepDeterminism
// requires byte-identical degradation reports across engines, worker
// counts, the fresh-spawn oracle, memo settings and -resume, and
// TestReplayFidelityDegraded requires a minted replay plan to re-arm
// the same degradations.
// `lfi sweep -faults degradation` runs the per-function degradation
// matrix (`-faults all` concatenates it with the errno matrix), and
// experiments.FaultModels (BENCH_faults.json) compares the two models'
// outcome profiles over the corpus.
//
// # Availability under fault
//
// The robustness question is also asked of services, not just
// processes (internal/apps, internal/core availability.go). The guest
// corpus carries long-running request/response servers — minidb, a
// WAL-backed transaction server whose append path retries a failed
// write (and minidb-nr, the same server with the retry compiled out),
// and httpd-mp, a master fanning requests out to pipe workers with
// failover — each paired with a generated MiniC traffic client that
// pumps phased request traffic (warmup, steady state, post-fault
// probe, a trailing tail window) through the kernel's loopback
// sockets on the deterministic cycle clock. CampaignConfig.Avail
// names the client; faults open mid-steady-state via <calls after=N>
// windows (core.AvailabilityExperiments generates the matrix: per
// profiled server call one one-shot errno fault plus moderate delay,
// budget-length delay, persistent disk exhaustion and fd-table
// saturation), and after the run the client's per-phase counters are
// read out of guest memory and classified (core.ClassifyAvail):
// recovered (post-fault probe clean, cycles within a latency envelope
// of the baseline), degraded (still answering, but with error replies
// or elevated latency), lost (requests dropped, then restored),
// wedged (stopped answering before the phases completed) or crashed
// (a server process died — the crash stack comes from the dead server,
// not the client). Classification happens in exactly one place on
// every executor path, against a baseline run on the same guest, so
// availability reports stay byte-identical across engines, worker
// counts, the fresh-spawn oracle, memo settings and -store/-resume
// (TestAvailabilitySweepDeterminism).
// served=warmup/steady/post counts persist in campaign records,
// -triage clusters non-recovered runs by (availability class, stack
// hash), `lfi sweep -avail <server>` runs the matrix from the CLI,
// and experiments.Availability (BENCH_availability.json,
// examples/availability) records the flagship comparison: the WAL
// retry absorbs a one-shot write errno (recovered) where the
// non-retrying server degrades permanently — and neither retry helps
// against a disk that stays full (degraded) or a call stalled past
// the budget (wedged). Where a resource fault is armed matters as
// much as which resource: fd pressure at accept wedges the service,
// at write it never binds. A wedge verdict costs the whole cycle
// budget, but not its interpretation: the wedged server retries accept
// while its client waits, and the block engine proves that spin and
// skips to the budget's last periods (see Execution engine), so the
// accept wedges run about 20x faster than they interpret; the step
// engine runs them in full, as the reference.
//
// # Caller-side audit
//
// Before any fault is injected, a static forward-dataflow pass over the
// guest binaries (internal/audit) finds the call sites that ignore
// their error returns. For every call site targeting a profiled
// function the audit tracks the return register from the call onward
// through the caller's CFG and classifies the site: checked (R0
// reaches a conditional branch), unchecked-clobbered (overwritten
// before any test), unchecked-propagated (returned to the next caller
// untested), or stored (written to memory, tracking ends). Analysis
// budgets are never silent — a site whose walk is truncated says so in
// the report, and the profiler's own MaxStates/MaxDepth cuts surface
// as per-function diagnostics (`lfi profile`, profiler.Stats.Truncated
// / DepthLimited) since a truncated analysis can mean missing error
// codes. The audit surfaces three ways: `lfi audit` renders the
// deterministic classification and exits nonzero when unchecked sites
// exist (a CI lint; `lfi plan -check -app/-lib` prints each
// faultload's target class next to its fire-phase line); `lfi sweep
// -order=static` reorders execution so faultloads targeting unchecked
// call sites run first — the scheduler permutes only the execution
// order and reassembles results in plan order, so the full-sweep
// report stays byte-identical to the default across engines, worker
// counts, the fresh-spawn oracle and memo settings
// (TestExecOrderReportByteIdentical),
// while -max-crashes triage reaches crashing faults sooner; and
// campaign records carry the target's class so -triage splits crash
// clusters into statically predicted and surprises.
// experiments.StaticAudit (BENCH_audit.json) measures both uses on a
// guest spanning the classification range: the unchecked =>
// non-recovered prediction scores recall 1.00 at precision 0.67 (the
// false positive is a deliberately tolerated close), and the static
// order discovers every crash cluster within 37% of the experiment
// budget where plan order needs all of it.
//
// The determinism contract is unchanged and oracle-enforced: both
// engines are decision-for-decision identical — same round-robin
// scheduling and time-slice splits (superblocks are divided at the
// slice boundary), same cycle counts at every observable boundary
// (host calls, syscalls, budget checks, <cycles> triggers, profiler
// charging), same coverage bits, same kills on the same instruction,
// byte-identical sweep reports at any worker count.
// A lockstep differential test drives both engines one scheduler round
// at a time comparing full machine state (internal/vm/exec_test.go),
// and the sweep-level tests (TestSweepEngineDifferential, and the
// step leg of the determinism harness) require byte-identical reports
// from the step oracle. Spin fast-forward is the block engine's one
// departure from replaying every instruction, and it is judged the
// same way: internal/controller's TestSpinFastForwardLockstep runs a
// wedged server to budgets inside, across and at the boundaries of the
// spin's periods, at time slices sharing factors with the period and
// coprime to it, and requires the step engine's registers, pages,
// cycles, kernel, injection log and evaluator counts, with cycles
// actually skipped; TestSpinFastForwardRefuses requires no jump where
// one would be wrong.
//
// One harness checks the sweep-level contract (internal/core,
// harness_test.go): a report depends only on (binaries, profiles,
// plan, budget). checkSweepInvariant runs the fresh-spawn oracle
// (SweepOptions{Workers: 1}) once, then requires every relation — the
// production executor at 4, 8 and a drawn number of workers, with a
// one-byte memo budget (no rungs), on the step engine, in a random
// execution order, with baseline pruning, and resumed from its own
// campaign store killed mid-append at a drawn record — to fail as the
// oracle fails or to render the same report, with the same cycles,
// injection log and store record for every run. The oracle runs on the
// block engine and fast-forwards spins like production, so the step
// leg is what judges those jumps. FuzzCampaign draws the guest (the
// fixed targets, the CLI workflows' applications, generated corpus
// libraries), the plan shape (errno, degradation,
// both, availability windows, seeded random triggers, audit-ranked
// order, early stops), the worker count, the permutation, the split
// and the budget; the named determinism tests are its fixed inputs.
// A new executor axis is one more relation.
//
// The sections above are the design inventory; the BENCH_audit,
// BENCH_availability and BENCH_faults JSON files record the outcome
// studies, and bench/README.md documents the end-to-end campaign
// benchmark. The public entry point for
// programmatic use is internal/core; the command-line tools are
// cmd/lfi, cmd/lfi-bench and cmd/lfi-corpus.
package lfi
