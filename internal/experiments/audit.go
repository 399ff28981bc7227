package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"lfi/internal/audit"
	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
)

// The static-audit benchmark guest: a key-value cache library plus an
// application whose call sites span the audit's whole classification
// range. open is checked (graceful error exit), read is
// checked-and-tolerated, close is unchecked but benign (the false
// positive the audit cannot avoid), and two call sites drop a pointer
// result on the floor — malloc inside the app and cache_get across the
// library boundary — each a distinct crash under injection.
const (
	auditLibSrc = `
needs "libc.so";
extern byte *malloc(int n);
byte *cache_get(int k) {
  byte *p;
  p = malloc(16);
  if (p == 0) { return 0; }
  p[0] = 'k';
  return p;
}
`
	auditAppSrc = `
needs "libc.so";
needs "libdb.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern byte *malloc(int n);
extern byte *cache_get(int k);
int load(void) {
  byte *p;
  p = malloc(8);
  p[0] = 'x';                      // BUG: unchecked allocation
  return 0;
}
int main(void) {
  int fd;
  int n;
  byte buf[32];
  byte *q;
  fd = open("/data", 0, 0);
  if (fd < 0) { return 2; }        // checked: graceful error exit
  n = read(fd, buf, 31);
  if (n < 0) { n = 0; }            // checked: tolerated
  close(fd);                       // unchecked but benign
  load();
  q = cache_get(3);
  q[1] = 'v';                      // BUG: unchecked cross-library lookup
  return 0;
}
`
)

// StaticAuditResult measures how well the caller-side audit predicts
// dynamic outcomes, and how much of the experiment budget the
// audit-prioritised execution order saves before every crash cluster
// has been discovered.
type StaticAuditResult struct {
	Workers int
	// Audit is the static classification of the guest's call sites.
	Audit *audit.Result
	// Classes maps each profiled function to its most fragile class.
	Classes map[string]string
	// Sweep is the full dynamic matrix, in plan order.
	Sweep *core.SweepResult
	// Total is the experiment count (the sweep budget).
	Total int
	// Clusters is the number of distinct crash clusters (stack hashes)
	// in the full matrix.
	Clusters int
	// DefaultBudget and StaticBudget count the experiments executed, in
	// plan order and in audit-prioritised order respectively, until the
	// last crash cluster is first reached.
	DefaultBudget int
	StaticBudget  int
	// Function-level confusion matrix of "statically unchecked =>
	// dynamically non-recovered (crash/hang)".
	TruePos, FalsePos, TrueNeg, FalseNeg int
}

// Precision is TP/(TP+FP) of the unchecked => non-recovered prediction.
func (r *StaticAuditResult) Precision() float64 {
	if r.TruePos+r.FalsePos == 0 {
		return 0
	}
	return float64(r.TruePos) / float64(r.TruePos+r.FalsePos)
}

// Recall is TP/(TP+FN).
func (r *StaticAuditResult) Recall() float64 {
	if r.TruePos+r.FalseNeg == 0 {
		return 0
	}
	return float64(r.TruePos) / float64(r.TruePos+r.FalseNeg)
}

// StaticAudit runs the caller-side audit against the benchmark guest,
// sweeps the full fault matrix once, and evaluates the audit two ways:
// as a predictor (does "unchecked" imply a non-recovered outcome?) and
// as a scheduler (how many experiments does -order=static need before
// every crash cluster has been seen, versus plan order?). The sweep
// runs once; both discovery curves are replayed from its recorded
// outcomes, so the comparison is exact, not sampled.
func StaticAudit(workers int) (*StaticAuditResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lc, err := libc.Compile()
	if err != nil {
		return nil, err
	}
	lib, err := minic.Compile("libdb.so", auditLibSrc, obj.Library)
	if err != nil {
		return nil, err
	}
	app, err := minic.Compile("app", auditAppSrc, obj.Executable)
	if err != nil {
		return nil, err
	}
	tls := func(errno int32) []profile.SideEffect {
		return []profile.SideEffect{{Type: profile.SideEffectTLS, Module: libc.Name, Value: errno}}
	}
	// The profile is restricted to the calls the guest makes; open and
	// read carry several error codes so the checked faultloads pad the
	// plan-order prefix the static order gets to skip.
	set := profile.Set{
		libc.Name: &profile.Profile{
			Library: libc.Name,
			Functions: []profile.Function{
				{Name: "open", ErrorCodes: []profile.ErrorCode{
					{Retval: -1, SideEffects: tls(2)},
					{Retval: -1, SideEffects: tls(13)},
					{Retval: -1, SideEffects: tls(24)},
				}},
				{Name: "read", ErrorCodes: []profile.ErrorCode{
					{Retval: -1, SideEffects: tls(4)},
					{Retval: -1, SideEffects: tls(5)},
				}},
				{Name: "close", ErrorCodes: []profile.ErrorCode{{Retval: -1, SideEffects: tls(9)}}},
				{Name: "malloc", ErrorCodes: []profile.ErrorCode{{Retval: 0, SideEffects: tls(12)}}},
			},
		},
		"libdb.so": &profile.Profile{
			Library: "libdb.so",
			Functions: []profile.Function{
				{Name: "cache_get", ErrorCodes: []profile.ErrorCode{{Retval: 0}}},
			},
		},
	}
	cfg := core.CampaignConfig{
		Programs:   []*obj.File{lc, lib, app},
		Executable: "app",
		Files:      map[string][]byte{"/data": []byte("payload")},
	}

	var targets []string
	for _, p := range set {
		for _, fn := range p.Functions {
			targets = append(targets, fn.Name)
		}
	}
	ares, err := audit.Analyze(cfg.Programs, targets, audit.Options{})
	if err != nil {
		return nil, err
	}
	classes := ares.Classes()

	exps := core.PlanExperiments(set)
	core.AnnotateAudit(exps, classes)

	// One full sweep, capturing the crash cluster (stack hash) of every
	// crashing experiment as it completes.
	var mu sync.Mutex
	hashes := make(map[string]string, len(exps))
	res, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: workers, Snapshot: true,
		OnResult: func(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) {
			if entry.Outcome == core.OutcomeCrash && rep != nil {
				h := controller.StackHash(rep.CrashStack, rep.Injections)
				mu.Lock()
				hashes[exp.Key()] = h
				mu.Unlock()
			}
		},
	})
	if err != nil {
		return nil, err
	}

	out := &StaticAuditResult{
		Workers: workers, Audit: ares, Classes: classes,
		Sweep: res, Total: len(exps),
	}

	// Crash-discovery curves: walk each execution order through the
	// recorded per-experiment clusters and note when the last distinct
	// cluster first appears.
	all := make(map[string]bool, len(hashes))
	for _, h := range hashes {
		all[h] = true
	}
	out.Clusters = len(all)
	discover := func(order []int) int {
		seen := make(map[string]bool, len(all))
		for k, i := range order {
			if h, ok := hashes[exps[i].Key()]; ok && !seen[h] {
				seen[h] = true
				if len(seen) == len(all) {
					return k + 1
				}
			}
		}
		return len(order)
	}
	identity := make([]int, len(exps))
	for i := range identity {
		identity[i] = i
	}
	out.DefaultBudget = discover(identity)
	out.StaticBudget = discover(core.StaticOrder(exps, classes))

	// Function-level confusion matrix. Ground truth: a function is
	// non-recovered when any of its faultloads crashes or hangs the
	// guest; handled and graceful error exits count as recovered.
	nonRecovered := make(map[string]bool)
	for _, e := range res.Entries {
		if e.Outcome == core.OutcomeCrash || e.Outcome == core.OutcomeHang {
			nonRecovered[e.Function] = true
		}
	}
	for _, fn := range sortedTargets(set) {
		predicted := core.AuditUnchecked(classes[fn])
		actual := nonRecovered[fn]
		switch {
		case predicted && actual:
			out.TruePos++
		case predicted && !actual:
			out.FalsePos++
		case !predicted && actual:
			out.FalseNeg++
		default:
			out.TrueNeg++
		}
	}
	return out, nil
}

// sortedTargets lists the profiled function names deterministically.
func sortedTargets(set profile.Set) []string {
	var out []string
	for _, p := range set {
		for _, fn := range p.Functions {
			out = append(out, fn.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Render prints the audit, the dynamic matrix, and both evaluations.
func (r *StaticAuditResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "static audit vs dynamic outcomes (%d workers)\n", r.Workers)
	b.WriteString(r.Audit.Render())
	b.WriteString(r.Sweep.Render())
	fmt.Fprintf(&b, "prediction (unchecked => non-recovered): precision %.2f (%d/%d), recall %.2f (%d/%d)\n",
		r.Precision(), r.TruePos, r.TruePos+r.FalsePos,
		r.Recall(), r.TruePos, r.TruePos+r.FalseNeg)
	fmt.Fprintf(&b, "crash discovery: %d cluster(s) in %d experiment(s)\n", r.Clusters, r.Total)
	fmt.Fprintf(&b, "  default order: all clusters after %d/%d experiments (%d%%)\n",
		r.DefaultBudget, r.Total, budgetPct(r.DefaultBudget, r.Total))
	fmt.Fprintf(&b, "  static order:  all clusters after %d/%d experiments (%d%%)\n",
		r.StaticBudget, r.Total, budgetPct(r.StaticBudget, r.Total))
	return b.String()
}

func budgetPct(n, d int) int {
	if d == 0 {
		return 0
	}
	return 100 * n / d
}
