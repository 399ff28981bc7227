package experiments

import (
	"fmt"
	"sort"
	"strings"

	"lfi/internal/apps"
	"lfi/internal/coverage"
	"lfi/internal/scenario"
	"lfi/internal/vm"
	"lfi/internal/workload"
)

// CoverageResult reproduces the §6.1 MySQL experiment: running the
// regression test suite under a fully automatic random libc faultload
// raises basic-block coverage (paper: 73% → at least 74% overall, +12% in
// the InnoDB ibuf module, with 12 SIGSEGV crashes along the way).
type CoverageResult struct {
	// Baseline/WithLFI are overall covered-block fractions of minidb.
	Baseline float64
	WithLFI  float64
	// ByModule maps function-name prefixes (the "modules") to
	// (baseline, with-LFI) fractions.
	ByModule map[string][2]float64
	// Crashes counts test runs that died on a signal under injection.
	Crashes int
	// Injections counts faults injected across the suite.
	Injections int
}

// coverageFaultFuncs is the faultload surface for the coverage
// experiment: the libc calls minidb's recovery code guards.
var coverageFaultFuncs = []string{"write", "open", "close", "malloc"}

// regressionSuite is the minidb "test suite": each test is a list of
// transactions sent over fresh connections. Like MySQL's suite it is
// thorough on functional paths but never exercises error-recovery code
// (no admin commands, no fault conditions).
func regressionSuite() [][]string {
	return [][]string{
		{"R 1 R 2 R 3 C", "R 4 R 5 C"},
		{"W 1 100 W 2 200 C", "R 1 R 2 C"},
		{"W 10 1 W 11 2 W 12 3 W 13 4 C", "R 10 R 11 R 12 R 13 C"},
		{"R 500 R 511 R 0 C"},
		{"W 511 9 C", "R 511 C", "W 511 0 C"},
		{"R -5 R -100 C"}, // negative keys (slot wrapping)
		{"W 77 7 R 77 W 77 8 R 77 C", "R 77 C"},
		{"R 1 R 1 R 1 R 1 R 1 R 1 R 1 R 1 C"},
		{"W 300 3 W 301 4 C", "W 302 5 C", "R 300 R 301 R 302 C"},
		{"R 42 W 42 42 R 42 C", "V C"}, // verify pass
	}
}

// DBCoverage runs the suite twice — without LFI and with a per-test
// random faultload — and reports block-coverage union and per-module
// deltas.
func DBCoverage(e *Env) (*CoverageResult, error) {
	baseImages, _, _, err := e.runSuite(nil, 0)
	if err != nil {
		return nil, fmt.Errorf("dbcoverage baseline: %w", err)
	}
	lfiImages, crashes, injections, err := e.runSuite(coverageFaultFuncs, 10)
	if err != nil {
		return nil, fmt.Errorf("dbcoverage with LFI: %w", err)
	}

	// Faults find new paths *in addition to* the regular suite: the
	// with-LFI coverage is the union of both runs, as in the paper
	// (they re-ran the same suite under injection).
	base, err := coverage.MergeBits(e.Minidb, baseImages)
	if err != nil {
		return nil, err
	}
	withLFI, err := coverage.MergeBits(e.Minidb, append(baseImages, lfiImages...))
	if err != nil {
		return nil, err
	}

	res := &CoverageResult{
		Baseline:   base.Fraction(),
		WithLFI:    withLFI.Fraction(),
		Crashes:    crashes,
		Injections: injections,
		ByModule:   make(map[string][2]float64),
	}
	baseMods := groupByModule(base)
	lfiMods := groupByModule(withLFI)
	for mod, bc := range baseMods {
		lc := lfiMods[mod]
		var bFrac, lFrac float64
		if bc[1] > 0 {
			bFrac = float64(bc[0]) / float64(bc[1])
			lFrac = float64(lc[0]) / float64(lc[1])
		}
		res.ByModule[mod] = [2]float64{bFrac, lFrac}
	}
	return res, nil
}

// runSuite executes the regression suite; faultFuncs nil means no LFI.
func (e *Env) runSuite(faultFuncs []string, probability float64) (images []*vm.Image, crashes, injections int, err error) {
	for i, test := range regressionSuite() {
		var plan *scenario.Plan
		if faultFuncs != nil {
			plan = scenario.RandomSubset(e.LibcProfiles, faultFuncs, probability, int64(1000+i))
		}
		c, serr := e.campaign("minidb", plan, vm.Options{Coverage: true}, nil, e.Minidb)
		if serr != nil {
			return nil, 0, 0, serr
		}
		sys := c.System()
		proc := sys.Procs()[0]
		if serr := workload.Settle(sys); serr != nil {
			return nil, 0, 0, serr
		}
		for _, txn := range test {
			if _, xerr := workload.Exchange(sys, apps.DBPort, []byte(txn)); xerr != nil {
				return nil, 0, 0, xerr
			}
			if proc.Exited {
				break
			}
		}
		if proc.Exited && proc.Status.Signal != 0 {
			crashes++
		}
		if ctl := c.Controller(); ctl != nil {
			injections += len(ctl.Log())
		}
		if im, ok := proc.ImageByName("minidb"); ok {
			images = append(images, im)
		}
	}
	return images, crashes, injections, nil
}

// groupByModule aggregates function coverage by name prefix ("wal",
// "tbl", "net", "parse", "adm", and "core" for main and helpers).
func groupByModule(mc coverage.ModuleCoverage) map[string][2]int {
	out := make(map[string][2]int)
	for _, f := range mc.Funcs {
		mod := "core"
		if i := strings.IndexByte(f.Name, '_'); i > 0 {
			mod = f.Name[:i]
		}
		cur := out[mod]
		cur[0] += f.Covered
		cur[1] += f.Total
		out[mod] = cur
	}
	return out
}

// Render prints the coverage comparison.
func (r *CoverageResult) Render() string {
	var b strings.Builder
	b.WriteString("§6.1 — test-suite coverage improvement (paper: 73% → ≥74% overall, +12% in one module, 12 crashes)\n")
	fmt.Fprintf(&b, "overall: %s → %s (+%.1f points), %d crashes, %d injections\n",
		pct(r.Baseline), pct(r.WithLFI), 100*(r.WithLFI-r.Baseline), r.Crashes, r.Injections)
	mods := make([]string, 0, len(r.ByModule))
	for m := range r.ByModule {
		mods = append(mods, m)
	}
	sort.Strings(mods)
	for _, m := range mods {
		v := r.ByModule[m]
		fmt.Fprintf(&b, "  module %-6s %s → %s (%+.1f points)\n",
			m, pct(v[0]), pct(v[1]), 100*(v[1]-v[0]))
	}
	return b.String()
}

// BestModuleDelta returns the largest per-module coverage gain in points.
func (r *CoverageResult) BestModuleDelta() (string, float64) {
	best, bestMod := 0.0, ""
	for m, v := range r.ByModule {
		if d := v[1] - v[0]; d > best {
			best, bestMod = d, m
		}
	}
	return bestMod, 100 * best
}
