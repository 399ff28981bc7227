package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"lfi/internal/apps"
	"lfi/internal/core"
)

// The availability comparison pair: the paper's robustness question
// asked of a *service* instead of a process. minidb is a WAL-backed
// transaction server whose append path retries a failed write (EINTR
// retry, then reopen); minidb-nr is the same server with the retry
// compiled out (it gives the WAL up on the first error). Both are
// driven by a generated traffic client that pumps phased requests —
// warmup, steady state, post-fault probe — through the kernel's
// loopback sockets, and every run is classified by what the service
// did, not how the process exited: recovered, degraded, lost, wedged
// or crashed.

// AvailabilityServer is one server guest's availability matrix.
type AvailabilityServer struct {
	Name  string
	Sweep *core.SweepResult
}

// AvailabilityResult compares service availability across fault models
// for the retrying and non-retrying servers.
type AvailabilityResult struct {
	Workers int
	Servers []AvailabilityServer
}

// Availability sweeps the retrying and non-retrying minidb servers
// under the availability fault matrix — per profiled function one
// one-shot errno fault plus the stateful models (moderate delay,
// budget-length delay, persistent disk exhaustion, fd-table
// saturation), each windowed to fire mid-steady-state — and records
// the availability class and per-phase service counts of every run.
// Deterministic at any worker count.
func Availability(workers int) (*AvailabilityResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &AvailabilityResult{Workers: workers}
	for _, server := range []string{"minidb", "minidb-nr"} {
		cfg, set, err := apps.AvailCampaign(server)
		if err != nil {
			return nil, err
		}
		exps := core.AvailabilityExperiments(set, apps.AvailAfter)
		sr, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: workers, Snapshot: true})
		if err != nil {
			return nil, fmt.Errorf("availability %s: %w", server, err)
		}
		res.Servers = append(res.Servers, AvailabilityServer{Name: server, Sweep: sr})
	}
	return res, nil
}

// Class returns the availability class of one (server, function, fault)
// cell; fault "errno" selects the one-shot error-return experiment.
func (r *AvailabilityResult) Class(server, function, fault string) core.AvailClass {
	for _, s := range r.Servers {
		if s.Name != server {
			continue
		}
		for _, e := range s.Sweep.Entries {
			f := e.Fault
			if f == "" {
				f = "errno"
			}
			if e.Function == function && f == fault {
				return e.Avail
			}
		}
	}
	return ""
}

// Classes tallies one server's availability classes across its matrix.
func (r *AvailabilityResult) Classes(server string) map[core.AvailClass]int {
	out := map[core.AvailClass]int{}
	for _, s := range r.Servers {
		if s.Name != server {
			continue
		}
		for _, e := range s.Sweep.Entries {
			out[e.Avail]++
		}
	}
	return out
}

// Render prints the per-server availability matrices and the
// comparison verdict: what the retry buys (and fails to buy) in
// service-level terms.
func (r *AvailabilityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "availability under fault: retrying vs non-retrying server (snapshot-restore sweep, %d workers)\n",
		r.Workers)
	for _, s := range r.Servers {
		fmt.Fprintf(&b, "--- %s: availability matrix ---\n", s.Name)
		b.WriteString(s.Sweep.Render())
		tally := r.Classes(s.Name)
		classes := make([]string, 0, len(tally))
		for c := range tally {
			classes = append(classes, string(c))
		}
		sort.Strings(classes)
		parts := make([]string, 0, len(classes))
		for _, c := range classes {
			parts = append(parts, fmt.Sprintf("%s=%d", c, tally[core.AvailClass(c)]))
		}
		fmt.Fprintf(&b, "classes: %s\n", strings.Join(parts, " "))
	}
	fmt.Fprintf(&b, "write/errno: %s=%s %s=%s — the one-shot fault the WAL retry absorbs and the non-retrying server never recovers from\n",
		r.Servers[0].Name, r.Class(r.Servers[0].Name, "write", "errno"),
		r.Servers[1].Name, r.Class(r.Servers[1].Name, "write", "errno"))
	fmt.Fprintf(&b, "write/exhaust=disk:after=0: %s=%s — persistent exhaustion defeats the retry either way\n",
		r.Servers[0].Name, r.Class(r.Servers[0].Name, "write", "exhaust=disk:after=0"))
	fmt.Fprintf(&b, "write/delay=200000000: %s=%s — a stalled call wedges the service either way\n",
		r.Servers[0].Name, r.Class(r.Servers[0].Name, "write", "delay=200000000"))
	return b.String()
}
