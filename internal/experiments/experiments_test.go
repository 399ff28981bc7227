package experiments

import (
	"strings"
	"testing"

	"lfi/internal/core"
	"lfi/internal/vm"
)

var envCache *Env

func testEnv(t *testing.T) *Env {
	t.Helper()
	if envCache == nil {
		e, err := NewEnv()
		if err != nil {
			t.Fatalf("environment: %v", err)
		}
		envCache = e
	}
	return envCache
}

func TestTable1Shape(t *testing.T) {
	r, err := Table1(1500, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total < 1500 {
		t.Errorf("analysed %d functions, want >= 1500", r.Total)
	}
	// Headline claim: >90% of functions expose no side channel.
	if f := r.NoSideEffectFraction(); f < 0.88 {
		t.Errorf("no-side-effect fraction = %.3f, want ~0.91", f)
	}
	// Cell shape: scalar/none dominates; void functions have no channel.
	if r.Cells["scalar"]["none"] < 0.4 {
		t.Errorf("scalar/none = %.3f, want ~0.57", r.Cells["scalar"]["none"])
	}
	if r.Cells["void"]["global"] != 0 || r.Cells["void"]["argument"] != 0 {
		t.Errorf("void rows must have no channels: %+v", r.Cells["void"])
	}
	if !strings.Contains(r.Render(), "Table 1") {
		t.Error("render missing header")
	}
}

func TestTable2SmallRows(t *testing.T) {
	// Full Table 2 runs in the bench/CLI; here check two small rows end
	// to end plus the pcre baseline path.
	r, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 18 {
		t.Fatalf("rows = %d, want 18", len(r.Rows))
	}
	mean := r.MeanAccuracy()
	if mean < 0.70 || mean > 0.98 {
		t.Errorf("mean accuracy = %.2f, paper reports ~80-90%%", mean)
	}
	for _, row := range r.Rows {
		acc := row.Score.Accuracy()
		if acc < 0.55 || row.Score.TP == 0 {
			t.Errorf("%s/%s: degenerate score %+v", row.Library, row.Platform, row.Score)
		}
		// Shape: each row lands within 15 points of the paper's value.
		if diff := acc - row.PaperAcc; diff > 0.15 || diff < -0.15 {
			t.Errorf("%s/%s: accuracy %.2f vs paper %.2f", row.Library, row.Platform, acc, row.PaperAcc)
		}
	}
	pacc := r.Pcre.Score.Accuracy()
	if pacc < 0.70 || pacc > 0.95 {
		t.Errorf("pcre accuracy = %.2f, paper 0.84", pacc)
	}
	t.Logf("\n%s", r.Render())
}

func TestRobustnessComparison(t *testing.T) {
	r, err := Robustness(4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Crashes("defensive") != 0 {
		t.Errorf("defensive crashes = %d, want 0", r.Crashes("defensive"))
	}
	if r.Crashes("sloppy") == 0 {
		t.Error("sloppy build should crash under the sweep")
	}
	seq, err := Robustness(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Apps {
		if r.Apps[i].Result.Render() != seq.Apps[i].Result.Render() {
			t.Errorf("%s: parallel and sequential robustness matrices differ", r.Apps[i].Name)
		}
	}
	for i := range r.Apps {
		st := r.Apps[i].Result.Memo
		if st == nil || st.Restored == 0 {
			t.Errorf("%s: memoized sweep shared no prefixes: %+v", r.Apps[i].Name, st)
		}
	}
	t.Logf("\n%s", r.Render())
}

func TestTriageWalkthrough(t *testing.T) {
	dir := t.TempDir()
	r, err := Triage(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ResumeIdentical {
		t.Error("resumed report must be byte-identical to a fresh full sweep")
	}
	if r.PartialEntries == 0 || r.PartialEntries >= r.ResumedEntries {
		t.Errorf("killed campaign covered %d/%d entries — not a partial store",
			r.PartialEntries, r.ResumedEntries)
	}
	if len(r.Clusters) == 0 {
		t.Error("sloppy target produced no crash clusters")
	}
	if r.Survivors == 0 || r.Second == nil {
		t.Errorf("escalation round missing: %d survivors, second=%v", r.Survivors, r.Second)
	}
	out := r.Render()
	for _, want := range []string{"crash triage:", "escalation:", "+"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	// Re-running against the same store resumes: the first round is
	// fully cached, and triage stays deterministic.
	again, err := Triage(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again.First.Render() != r.First.Render() {
		t.Error("resumed walkthrough report differs")
	}
	if len(again.Clusters) != len(r.Clusters) ||
		(len(r.Clusters) > 0 && again.Clusters[0].StackHash != r.Clusters[0].StackHash) {
		t.Errorf("triage clusters differ across resumes:\n%+v\nvs\n%+v", again.Clusters, r.Clusters)
	}
	t.Logf("\n%s", r.Render())
}

func TestEfficiencySeries(t *testing.T) {
	r, err := Efficiency(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 4 {
		t.Fatalf("points = %d", len(r.Points))
	}
	if !roughlyLinear(r) {
		t.Errorf("profiling time grows super-quadratically:\n%s", r.Render())
	}
	// Largest library must still profile in seconds, not minutes.
	last := r.Points[len(r.Points)-1]
	if last.WallTime.Seconds() > 60 {
		t.Errorf("libxml2-size profiling took %v", last.WallTime)
	}
	t.Logf("\n%s", r.Render())
}

func TestTable3OverheadShape(t *testing.T) {
	e := testEnv(t)
	r, err := Table3(e, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(TriggerCounts) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	base := r.Rows[0]
	// PHP must be substantially more expensive than static (paper: 10x).
	if base.PHPSecs < 3*base.StaticSecs {
		t.Errorf("php/static ratio = %.1f, want >= 3", base.PHPSecs/base.StaticSecs)
	}
	// Overhead monotonicity-ish and negligible: < 10% worst case.
	if ov := r.MaxOverhead(); ov > 0.10 {
		t.Errorf("max overhead = %.1f%%, paper reports negligible (<6%%)", 100*ov)
	}
	last := r.Rows[len(r.Rows)-1]
	if last.StaticSecs < base.StaticSecs || last.PHPSecs < base.PHPSecs {
		t.Errorf("1000 triggers faster than baseline: %+v vs %+v", last, base)
	}
	t.Logf("\n%s", r.Render())
}

func TestTable4OverheadShape(t *testing.T) {
	e := testEnv(t)
	r, err := Table4(e, 60)
	if err != nil {
		t.Fatal(err)
	}
	base := r.Rows[0]
	// Read-only throughput exceeds read/write (paper: 465 vs 113).
	if base.ReadOnly <= base.ReadWrite {
		t.Errorf("read-only TPS %.1f <= read/write TPS %.1f", base.ReadOnly, base.ReadWrite)
	}
	if loss := r.MaxThroughputLoss(); loss > 0.10 {
		t.Errorf("max throughput loss = %.1f%%, paper reports ~1-2%%", 100*loss)
	}
	last := r.Rows[len(r.Rows)-1]
	if last.ReadOnly > base.ReadOnly {
		t.Errorf("1000 triggers faster than baseline")
	}
	t.Logf("\n%s", r.Render())
}

func TestPidginBugFoundAndReplayed(t *testing.T) {
	e := testEnv(t)
	r, err := PidginBug(e, 60)
	if err != nil {
		t.Fatal(err)
	}
	if r.Signal != "SIGABRT" {
		t.Errorf("crash signal = %s, want SIGABRT", r.Signal)
	}
	if r.ReplaySignal != "SIGABRT" {
		t.Errorf("replay signal = %s, want SIGABRT", r.ReplaySignal)
	}
	if r.Injections == 0 {
		t.Error("no injections recorded")
	}
	if r.CleanExitCode != 12 {
		t.Errorf("clean run resolved %d, want 12", r.CleanExitCode)
	}
	t.Logf("\n%s", r.Render())
}

// TestPidginBudgetStopIsHang: a run stopped by its cycle budget is a
// hang (code -1), as a deadlocked one is, so PidginBug moves on to the
// next seed instead of failing.
func TestPidginBudgetStopIsHang(t *testing.T) {
	e := testEnv(t)
	st, _, err := e.runPidgin(nil, 100)
	if err != nil || st != (vm.ExitStatus{Code: -1}) {
		t.Errorf("100-cycle clean run: status %+v, err %v; want code -1 and no error", st, err)
	}
}

func TestDBCoverageImproves(t *testing.T) {
	e := testEnv(t)
	r, err := DBCoverage(e)
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline < 0.60 || r.Baseline > 0.85 {
		t.Errorf("baseline coverage = %s, want ~73%%", pct(r.Baseline))
	}
	if r.WithLFI <= r.Baseline {
		t.Errorf("coverage did not improve: %s -> %s", pct(r.Baseline), pct(r.WithLFI))
	}
	mod, delta := r.BestModuleDelta()
	if delta < 5 {
		t.Errorf("best module delta = %.1f points (%s), want a wal-style jump", delta, mod)
	}
	if r.Injections == 0 {
		t.Error("no injections during coverage run")
	}
	t.Logf("\n%s", r.Render())
}

func TestDocGapsFound(t *testing.T) {
	e := testEnv(t)
	r, err := DocGaps(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Gaps) != 2 {
		t.Fatalf("gaps = %d", len(r.Gaps))
	}
	closeGap := r.Gaps[0]
	if !contains(closeGap.Missing, "EIO") {
		t.Errorf("close: EIO not flagged as undocumented: %+v", closeGap)
	}
	ldtGap := r.Gaps[1]
	if !contains(ldtGap.Missing, "ENOMEM") {
		t.Errorf("modify_ldt: ENOMEM not flagged: %+v", ldtGap)
	}
	t.Logf("\n%s", r.Render())
}

func TestCorrelatedFaultload(t *testing.T) {
	r, err := Correlated()
	if err != nil {
		t.Fatal(err)
	}
	if r.WritesBefore != 0 {
		t.Errorf("writes failed before the malloc fault: %d", r.WritesBefore)
	}
	if r.WritesAfter != 5 {
		t.Errorf("writes failed after the malloc fault = %d, want 5 (sticky cascade)", r.WritesAfter)
	}
	if r.MallocFaultCall != 4 {
		t.Errorf("malloc fault fired on call %d, want 4", r.MallocFaultCall)
	}
	if r.ExitCode != 5 {
		t.Errorf("exit code = %d, want 5 (0 before, 5 after)", r.ExitCode)
	}
	if !r.Correlated() {
		t.Error("correlation violated")
	}
	if len(r.Log) != 6 || r.Log[0].Function != "malloc" {
		t.Errorf("log should open with the malloc fault: %+v", r.Log)
	}
	t.Logf("\n%s", r.Render())
}

func TestFigure2CFG(t *testing.T) {
	r, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks < 4 {
		t.Errorf("blocks = %d, want a branching CFG", r.Blocks)
	}
	if r.Exits < 1 {
		t.Error("no exit blocks")
	}
	if !strings.Contains(r.Dot, "digraph") {
		t.Error("dot output malformed")
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestFaultModelsComparison(t *testing.T) {
	r, err := FaultModels(4)
	if err != nil {
		t.Fatal(err)
	}
	// The headline: one retry absorbs a one-shot errno fault on write,
	// but not a disk that stays full — the error-return matrix calls
	// the retrying writer robust where the stateful model does not.
	if got := sweptOutcome(r, "retrying", "write", "errno"); got != "handled" {
		t.Errorf("retrying/write under errno = %s, want handled", got)
	}
	if got := sweptOutcome(r, "retrying", "write", "exhaust=disk:after=0"); got != "error-exit" {
		t.Errorf("retrying/write under disk exhaustion = %s, want error-exit", got)
	}
	if got := sweptOutcome(r, "checking", "write", "errno"); got != "error-exit" {
		t.Errorf("checking/write under errno = %s, want error-exit", got)
	}
	// A stalled call hangs either app; no error-return fault can.
	if got := sweptOutcome(r, "retrying", "write", "delay=200000000"); got != "hang" {
		t.Errorf("retrying/write under delay = %s, want hang", got)
	}
	if r.Masked("retrying") == 0 {
		t.Error("errno model masked no stateful failures of the retrying writer")
	}
	// Deterministic across worker counts.
	seq, err := FaultModels(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Apps {
		if r.Apps[i].Errno.Render() != seq.Apps[i].Errno.Render() {
			t.Errorf("%s: errno matrix differs across worker counts", r.Apps[i].Name)
		}
		if r.Apps[i].Degradation.Render() != seq.Apps[i].Degradation.Render() {
			t.Errorf("%s: degradation matrix differs across worker counts", r.Apps[i].Name)
		}
	}
	report := r.Render()
	for _, want := range []string{"error-return matrix", "degradation matrix", "masked by one-shot errno model"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	t.Logf("\n%s", report)
}

// TestAvailabilityComparison pins the flagship service-level result:
// the WAL retry absorbs a one-shot write errno (recovered) where the
// non-retrying server degrades permanently, and neither retry helps
// against persistent exhaustion or a budget-length stall.
func TestAvailabilityComparison(t *testing.T) {
	r, err := Availability(4)
	if err != nil {
		t.Fatal(err)
	}
	cells := []struct {
		server, function, fault string
		want                    core.AvailClass
	}{
		{"minidb", "write", "errno", core.AvailRecovered},
		{"minidb-nr", "write", "errno", core.AvailDegraded},
		{"minidb", "write", "exhaust=disk:after=0", core.AvailDegraded},
		{"minidb-nr", "write", "exhaust=disk:after=0", core.AvailDegraded},
		{"minidb", "write", "delay=200000000", core.AvailWedged},
		{"minidb", "accept", "exhaust=fds:slots=0", core.AvailWedged},
	}
	for _, c := range cells {
		if got := r.Class(c.server, c.function, c.fault); got != c.want {
			t.Errorf("%s %s/%s = %s, want %s", c.server, c.function, c.fault, got, c.want)
		}
	}
	out := r.Render()
	for _, want := range []string{
		"write/errno: minidb=recovered minidb-nr=degraded",
		"classes:",
		"served=200/",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestStaticAuditExperiment pins the audit's headline numbers: the
// unchecked classification recalls every crashing function, the benign
// unchecked close is the expected precision hit, and the
// audit-prioritised order reaches every crash cluster within half the
// experiment budget the default order needs the whole of.
func TestStaticAuditExperiment(t *testing.T) {
	r, err := StaticAudit(4)
	if err != nil {
		t.Fatal(err)
	}
	// The static classification itself.
	for fn, want := range map[string]string{
		"malloc":    "unchecked-clobbered",
		"cache_get": "unchecked-clobbered",
		"close":     "unchecked-clobbered",
		"open":      "checked",
		"read":      "checked",
	} {
		if got := r.Classes[fn]; got != want {
			t.Errorf("class(%s) = %q, want %q", fn, got, want)
		}
	}
	// Prediction quality: both crashes are predicted (recall 1.0);
	// close is unchecked-but-benign, the designed false positive.
	if r.TruePos != 2 || r.FalseNeg != 0 {
		t.Errorf("confusion TP=%d FN=%d, want TP=2 FN=0", r.TruePos, r.FalseNeg)
	}
	if r.FalsePos != 1 {
		t.Errorf("FP=%d, want 1 (the benign unchecked close)", r.FalsePos)
	}
	if r.Recall() != 1.0 {
		t.Errorf("recall = %v, want 1.0", r.Recall())
	}
	// The discovery curve: two distinct crash clusters; static order
	// must find both within half the budget (the acceptance criterion),
	// and strictly earlier than plan order.
	if r.Clusters != 2 {
		t.Errorf("clusters = %d, want 2 (app malloc + cross-library cache_get)", r.Clusters)
	}
	if 2*r.StaticBudget > r.Total {
		t.Errorf("static order used %d/%d experiments to find all clusters; want <= 50%%",
			r.StaticBudget, r.Total)
	}
	if r.StaticBudget >= r.DefaultBudget {
		t.Errorf("static order (%d) not earlier than default (%d)", r.StaticBudget, r.DefaultBudget)
	}
	// Deterministic across worker counts.
	seq, err := StaticAudit(1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Sweep.Render() != seq.Sweep.Render() || r.Audit.Render() != seq.Audit.Render() ||
		r.DefaultBudget != seq.DefaultBudget || r.StaticBudget != seq.StaticBudget ||
		r.TruePos != seq.TruePos || r.FalsePos != seq.FalsePos ||
		r.TrueNeg != seq.TrueNeg || r.FalseNeg != seq.FalseNeg {
		t.Errorf("results differ across worker counts:\n--- 4 ---\n%s--- 1 ---\n%s",
			r.Render(), seq.Render())
	}
	t.Logf("\n%s", r.Render())
}

// roughlyLinear reports whether time grows sub-quadratically with code
// size across the series (the §6.2 claim: "profiling time is mainly
// influenced by code size").
func roughlyLinear(r *EfficiencyResult) bool {
	if len(r.Points) < 2 {
		return true
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if first.CodeKB == 0 || first.WallTime <= 0 {
		return true
	}
	sizeRatio := float64(last.CodeKB) / float64(first.CodeKB)
	timeRatio := float64(last.WallTime) / float64(first.WallTime)
	return timeRatio < sizeRatio*sizeRatio
}

// sweptOutcome returns the swept outcome of one (app, function) cell under
// the named model ("errno" or a degradation fault label); "" if absent.
func sweptOutcome(r *FaultModelsResult, app, function, fault string) core.Outcome {
	for _, a := range r.Apps {
		if a.Name != app {
			continue
		}
		entries := a.Errno.Entries
		if fault != "errno" {
			entries = a.Degradation.Entries
		}
		for _, e := range entries {
			if e.Function != function {
				continue
			}
			if fault == "errno" || e.Fault == fault {
				return e.Outcome
			}
		}
	}
	return ""
}
