package core_test

import (
	"testing"

	"lfi/internal/apps"
	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/profile"
)

// availTarget is the availability campaign of a built-in server guest
// and its two-call profile (apps.AvailCampaign).
func availTarget(t testing.TB, server string) (core.CampaignConfig, profile.Set) {
	t.Helper()
	cfg, set, err := apps.AvailCampaign(server)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, set
}

// TestAvailabilityFlagship is the paper-style comparison the harness
// exists for: the retrying WAL server recovers from a one-shot write
// error but degrades under persistent disk exhaustion and injected
// latency, wedges when a call stalls past the budget, and the
// non-retrying variant turns the same one-shot error into permanent
// degradation.
func TestAvailabilityFlagship(t *testing.T) {
	_, set := availTarget(t, "minidb")
	exps := core.AvailabilityExperiments(set, apps.AvailAfter)
	if len(exps) != 10 {
		t.Fatalf("experiments = %d, want 10 (2 functions x (1 errno + 4 models))", len(exps))
	}

	classes := func(server string) map[string]core.AvailClass {
		cfg, _ := availTarget(t, server)
		res, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 4})
		if err != nil {
			t.Fatalf("%s: %v", server, err)
		}
		got := map[string]core.AvailClass{}
		for _, e := range res.Entries {
			fault := e.Fault
			if fault == "" {
				fault = "errno"
			}
			key := e.Function + "/" + fault
			got[key] = e.Avail
			if e.Avail == "" {
				t.Errorf("%s %s: no availability class", server, key)
			}
			// Phase counters are per-run service evidence: warmup always
			// completes (the fault window opens mid-steady-state).
			if e.AvailBefore != apps.AvailWarm {
				t.Errorf("%s %s: warmup served %d/%d", server, key, e.AvailBefore, apps.AvailWarm)
			}
		}
		return got
	}

	retry := classes("minidb")
	want := map[string]core.AvailClass{
		// One-shot errors: the dropped accept is retried from the backlog
		// on the next loop; the failed append reopens the WAL — recovered.
		"accept/errno": core.AvailRecovered,
		"write/errno":  core.AvailRecovered,
		// Moderate stall: every request answered, latency envelope blown.
		"accept/delay=30000000": core.AvailDegraded,
		"write/delay=30000000":  core.AvailDegraded,
		// Budget-length stall: the client never finishes its phases.
		"accept/delay=200000000": core.AvailWedged,
		"write/delay=200000000":  core.AvailWedged,
		// Disk full from the window on: the WAL reopen succeeds (the node
		// exists) but every append keeps failing — the server answers ERR
		// for the rest of the run, which is degraded service, not a wedge.
		"accept/exhaust=disk:after=0": core.AvailDegraded,
		"write/exhaust=disk:after=0":  core.AvailDegraded,
		// fd saturation armed at accept fails that accept's own slot and
		// every later one: connections queue but are never answered.
		"accept/exhaust=fds:slots=0": core.AvailWedged,
		// Armed at the WAL write, the shrunk table still fits the
		// steady-state churn (the in-flight connection's slot is freed and
		// reused), so the pressure never binds: where a resource fault is
		// armed matters as much as which resource.
		"write/exhaust=fds:slots=0": core.AvailRecovered,
	}
	for key, w := range want {
		if retry[key] != w {
			t.Errorf("minidb %s = %s, want %s", key, retry[key], w)
		}
	}

	// The non-retrying server gives the WAL up on the first error: the
	// same one-shot fault becomes permanent degradation — the paper-style
	// recovery-code comparison.
	noRetry := classes("minidb-nr")
	if noRetry["write/errno"] != core.AvailDegraded {
		t.Errorf("minidb-nr write/errno = %s, want %s", noRetry["write/errno"], core.AvailDegraded)
	}
	if noRetry["accept/errno"] != core.AvailRecovered {
		t.Errorf("minidb-nr accept/errno = %s, want %s", noRetry["accept/errno"], core.AvailRecovered)
	}
}

// TestClassifyAvail pins the taxonomy's precedence: worst-first, with
// the latency envelope deciding degraded-vs-recovered only for runs
// that completed with clean counters.
func TestClassifyAvail(t *testing.T) {
	base := &core.Report{Cycles: 1000}
	rep := func(cycles uint64, c core.AvailCounters) *core.Report {
		return &core.Report{Cycles: cycles, Avail: &c}
	}
	ok := core.AvailCounters{PostOK: 10, TailFail: 0, Done: true}
	cases := []struct {
		name string
		rep  *core.Report
		want core.AvailClass
	}{
		{"clean", rep(1000, ok), core.AvailRecovered},
		{"latency-within-envelope", rep(1200, ok), core.AvailRecovered},
		{"latency-elevated", rep(1300, ok), core.AvailDegraded},
		{"dropped-then-restored", rep(1000, core.AvailCounters{PostOK: 8, PostFail: 2, Done: true}), core.AvailLost},
		{"still-failing", rep(1000, core.AvailCounters{PostOK: 8, PostFail: 2, TailFail: 2, Done: true}), core.AvailDegraded},
		{"never-answered", rep(1000, core.AvailCounters{PostFail: 10, Done: true}), core.AvailWedged},
		{"incomplete", rep(1000, core.AvailCounters{PostOK: 10, Done: false}), core.AvailWedged},
		{"server-died", rep(1000, core.AvailCounters{PostOK: 10, Done: true, ServerSignal: 11}), core.AvailCrashed},
		{"no-counters", &core.Report{Cycles: 1000}, core.AvailWedged},
	}
	for _, tc := range cases {
		if got := core.ClassifyAvail(tc.rep, base, core.DefaultAvailLatencyPct); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestAvailabilitySweepDeterminism: availability classes and per-phase
// served counts are read from guest memory after multi-process
// request/response traffic, so any scheduling-visible divergence
// between executor configurations flips a class or shifts a count.
func TestAvailabilitySweepDeterminism(t *testing.T) {
	cfg, set := availTarget(t, "minidb")
	checkSweepInvariant(t, cfg, core.AvailabilityExperiments(set, apps.AvailAfter), 0,
		draws{workers: 4, perm: 1, split: 4})
}

// TestAvailabilityMultiProcessServer runs the fault matrix against the
// multi-process httpd: the master fans requests out to pipe workers,
// and a one-shot worker read error rides the failover path.
func TestAvailabilityMultiProcessServer(t *testing.T) {
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			{Name: "open", ErrorCodes: []profile.ErrorCode{{Retval: -1}}},
		},
	}}
	exps := core.AvailabilityExperiments(set, apps.AvailAfter)
	cfg, _ := availTarget(t, "httpd-mp")
	res, err := core.RunExperiments(cfg, exps, 0,
		core.SweepOptions{Workers: 4, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]core.AvailClass{}
	for _, e := range res.Entries {
		key := e.Fault
		if key == "" {
			key = "errno"
		}
		got[key] = e.Avail
	}
	// A one-shot open failure inside one worker 404s a single request
	// and the service carries on: lost (dropped then restored) — the
	// worker keeps serving, so nothing stays degraded.
	if c := got["errno"]; c != core.AvailRecovered && c != core.AvailLost && c != core.AvailDegraded {
		t.Errorf("httpd-mp errno = %s, want a serving class", c)
	}
	// Persistent disk exhaustion cannot fail reads of existing files:
	// the static corpus keeps serving.
	if c := got["exhaust=disk:after=0"]; c == core.AvailCrashed || c == core.AvailWedged {
		t.Errorf("httpd-mp disk exhaustion = %s, want a serving class", c)
	}
	// A worker open stalled past the budget wedges the request path.
	if c := got["delay=200000000"]; c != core.AvailWedged {
		t.Errorf("httpd-mp wedge delay = %s, want %s", c, core.AvailWedged)
	}
}
