package experiments

import (
	"fmt"
	"strings"

	"lfi/internal/apps"
	"lfi/internal/core"
	"lfi/internal/obj"
	"lfi/internal/vm"
	"lfi/internal/workload"
)

// TriggerCounts are the paper's Table 3/4 sweep points (0 = baseline
// without LFI).
var TriggerCounts = []int{0, 10, 100, 500, 1000}

// httpdHot and dbHot order the libc functions by how often the workloads
// call them — the "top-N most-called functions" of the paper's overhead
// methodology.
var (
	httpdHot = []string{
		"recv", "send", "open", "read", "close", "accept",
		"strncmp", "strlen", "memset", "itoa", "malloc", "free",
	}
	dbHot = []string{
		"recv", "send", "accept", "write", "close", "open",
		"itoa", "strlen", "malloc", "free",
	}
)

// Table3Row is one Apache/AB measurement.
type Table3Row struct {
	Triggers    int
	StaticSecs  float64
	PHPSecs     float64
	StaticPaper float64
	PHPPaper    float64
}

// Table3Result reproduces the paper's Table 3: completion time of an
// AB batch against httpd while LFI evaluates 0..1000 pass-through
// triggers. Seconds are virtual (cycles / ClockHz), so results are
// deterministic; the reproduced claim is the shape — overhead negligible
// and mildly increasing with trigger count, PHP ≫ static baseline.
type Table3Result struct {
	Requests int
	Rows     []Table3Row
}

// paperTable3 maps trigger count to the published (static, php) seconds.
var paperTable3 = map[int][2]float64{
	0:    {0.151, 1.51},
	10:   {0.156, 1.53},
	100:  {0.156, 1.53},
	500:  {0.158, 1.57},
	1000: {0.159, 1.60},
}

// Table3 runs the AB sweep with the given request count per cell (the
// paper uses 1000).
func Table3(e *Env, requests int) (*Table3Result, error) {
	res := &Table3Result{Requests: requests}
	for _, n := range TriggerCounts {
		static, err := e.runAB(n, "/index.html", requests)
		if err != nil {
			return nil, fmt.Errorf("table3: %d triggers static: %w", n, err)
		}
		php, err := e.runAB(n, "/app.php", requests)
		if err != nil {
			return nil, fmt.Errorf("table3: %d triggers php: %w", n, err)
		}
		paper := paperTable3[n]
		res.Rows = append(res.Rows, Table3Row{
			Triggers:   n,
			StaticSecs: static.Seconds(), PHPSecs: php.Seconds(),
			StaticPaper: paper[0], PHPPaper: paper[1],
		})
	}
	return res, nil
}

// Table3Cell runs a single Table 3 cell (one trigger count, one path) —
// exposed for the benchmark harness.
func Table3Cell(e *Env, triggers int, path string, requests int) (workload.ABResult, error) {
	return e.runAB(triggers, path, requests)
}

// Table4Cell runs a single Table 4 cell — exposed for the benchmark
// harness.
func Table4Cell(e *Env, triggers int, readWrite bool, txns int) (workload.OLTPResult, error) {
	kind := workload.ReadOnly
	if readWrite {
		kind = workload.ReadWrite
	}
	return e.runOLTP(triggers, kind, txns)
}

// overheadCampaign builds one Tables 3/4 cell: exe under n pass-through
// triggers on its hot functions, every decision forced to call the
// original (none without LFI).
func (e *Env) overheadCampaign(exe string, hot []string, n int, files map[string][]byte, prog *obj.File) (*core.Campaign, error) {
	c, err := e.campaign(exe, passthroughPlan(hot, n), vm.Options{}, files, prog)
	if err == nil && c.Controller() != nil {
		c.Controller().PassThrough = true
	}
	return c, err
}

func (e *Env) runAB(triggers int, path string, requests int) (workload.ABResult, error) {
	c, err := e.overheadCampaign("httpd", httpdHot, triggers, apps.WWWFiles(), e.Httpd)
	if err != nil {
		return workload.ABResult{}, err
	}
	r, err := workload.RunAB(c.System(), apps.HTTPPort, path, requests)
	if err != nil {
		return r, err
	}
	if r.Failed > 0 {
		return r, fmt.Errorf("%d/%d requests failed", r.Failed, r.Requests)
	}
	return r, nil
}

// Render prints Table 3 with paper values alongside.
func (r *Table3Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3 — Apache httpd + AB, %d requests (virtual secs | paper secs)\n", r.Requests)
	b.WriteString("Config            Static HTML          PHP\n")
	for _, row := range r.Rows {
		name := "Baseline (no LFI)"
		if row.Triggers > 0 {
			name = fmt.Sprintf("%d triggers", row.Triggers)
		}
		fmt.Fprintf(&b, "%-17s %8.4f | %-8.3f %8.4f | %-8.2f\n",
			name, row.StaticSecs, row.StaticPaper, row.PHPSecs, row.PHPPaper)
	}
	return b.String()
}

// MaxOverhead returns the worst-case relative slowdown vs baseline across
// both workloads — the "negligible overhead" claim.
func (r *Table3Result) MaxOverhead() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	base := r.Rows[0]
	worst := 0.0
	for _, row := range r.Rows[1:] {
		if base.StaticSecs > 0 {
			if d := row.StaticSecs/base.StaticSecs - 1; d > worst {
				worst = d
			}
		}
		if base.PHPSecs > 0 {
			if d := row.PHPSecs/base.PHPSecs - 1; d > worst {
				worst = d
			}
		}
	}
	return worst
}

// ---------------------------------------------------------------------------
// Table 4 — MySQL / SysBench OLTP
// ---------------------------------------------------------------------------

// Table4Row is one OLTP measurement.
type Table4Row struct {
	Triggers  int
	ReadOnly  float64 // txns per virtual second
	ReadWrite float64
	ROPaper   float64
	RWPaper   float64
}

// Table4Result reproduces the paper's Table 4: SysBench OLTP throughput
// on minidb under 0..1000 pass-through triggers.
type Table4Result struct {
	Transactions int
	Rows         []Table4Row
}

var paperTable4 = map[int][2]float64{
	0:    {465.28, 112.62},
	10:   {464.48, 112.08},
	100:  {463.19, 111.53},
	500:  {460.80, 110.88},
	1000: {459.39, 110.10},
}

// Table4 runs the OLTP sweep with the given transaction count per cell.
func Table4(e *Env, txns int) (*Table4Result, error) {
	res := &Table4Result{Transactions: txns}
	for _, n := range TriggerCounts {
		ro, err := e.runOLTP(n, workload.ReadOnly, txns)
		if err != nil {
			return nil, fmt.Errorf("table4: %d triggers ro: %w", n, err)
		}
		rw, err := e.runOLTP(n, workload.ReadWrite, txns)
		if err != nil {
			return nil, fmt.Errorf("table4: %d triggers rw: %w", n, err)
		}
		paper := paperTable4[n]
		res.Rows = append(res.Rows, Table4Row{
			Triggers: n,
			ReadOnly: ro.TPS(), ReadWrite: rw.TPS(),
			ROPaper: paper[0], RWPaper: paper[1],
		})
	}
	return res, nil
}

func (e *Env) runOLTP(triggers int, kind workload.OLTPKind, txns int) (workload.OLTPResult, error) {
	c, err := e.overheadCampaign("minidb", dbHot, triggers, nil, e.Minidb)
	if err != nil {
		return workload.OLTPResult{}, err
	}
	r, err := workload.RunOLTP(c.System(), apps.DBPort, kind, txns)
	if err != nil {
		return r, err
	}
	if r.Failed > 0 {
		return r, fmt.Errorf("%d/%d transactions failed", r.Failed, r.Transactions)
	}
	return r, nil
}

// Render prints Table 4 with paper values alongside.
func (r *Table4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4 — MySQL + SysBench OLTP, %d transactions (virtual txns/sec | paper)\n", r.Transactions)
	b.WriteString("Config            Read-only              Read/Write\n")
	for _, row := range r.Rows {
		name := "Baseline (no LFI)"
		if row.Triggers > 0 {
			name = fmt.Sprintf("%d triggers", row.Triggers)
		}
		fmt.Fprintf(&b, "%-17s %9.1f | %-9.2f %9.1f | %-9.2f\n",
			name, row.ReadOnly, row.ROPaper, row.ReadWrite, row.RWPaper)
	}
	return b.String()
}

// MaxThroughputLoss returns the worst relative throughput drop vs
// baseline.
func (r *Table4Result) MaxThroughputLoss() float64 {
	if len(r.Rows) == 0 {
		return 0
	}
	base := r.Rows[0]
	worst := 0.0
	for _, row := range r.Rows[1:] {
		if base.ReadOnly > 0 {
			if d := 1 - row.ReadOnly/base.ReadOnly; d > worst {
				worst = d
			}
		}
		if base.ReadWrite > 0 {
			if d := 1 - row.ReadWrite/base.ReadWrite; d > worst {
				worst = d
			}
		}
	}
	return worst
}
