package experiments

import (
	"fmt"
	"strings"

	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/scenario"
)

// correlatedAppSrc models a service loop under heap pressure: each
// iteration allocates a scratch buffer and appends a record to its
// output stream, tallying write failures observed before and after the
// first allocation failure. Exit code = 10*before + after.
const correlatedAppSrc = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern byte *malloc(int n);
extern int write(int fd, byte *buf, int n);
extern tls int errno;
int main(void) {
  int fd;
  int i;
  int before;
  int after;
  int seen;
  byte *p;
  fd = open("/journal", 65, 0);
  if (fd < 0) { return 99; }
  before = 0;
  after = 0;
  seen = 0;
  for (i = 0; i < 8; i = i + 1) {
    p = malloc(16);
    if (p == 0) { seen = 1; }
    if (write(fd, "x", 1) < 0) {
      if (seen == 0) { before = before + 1; }
      else { after = after + 1; }
    }
  }
  return before * 10 + after;
}
`

// CorrelatedResult demonstrates the correlated-faultload grammar: the
// faultload fails write with ENOSPC only once malloc has already
// failed (<after-fault function="malloc"/>), and keeps it failing
// (sticky="true") — a cascading heap-pressure scenario a flat
// per-function trigger list cannot express.
type CorrelatedResult struct {
	// ExitCode is 10*WritesBefore + WritesAfter as counted by the app.
	ExitCode int32
	// MallocFaultCall is the malloc call count at which the upstream
	// fault fired.
	MallocFaultCall int32
	// WritesBefore/WritesAfter count injected write faults before and
	// after the malloc fault in log order (correlation demands 0 before).
	WritesBefore, WritesAfter int
	// Log is the full injection log.
	Log []controller.InjectionRecord
}

// CorrelatedPlan is the faultload under test, exported so the CLI and
// docs can show the worked example.
func CorrelatedPlan() *scenario.Plan {
	return &scenario.Plan{Triggers: []scenario.Trigger{
		{Function: "malloc", Inject: 4, Retval: "0", Errno: "ENOMEM", Once: true},
		{Function: "write", Retval: "-1", Errno: "ENOSPC", Sticky: true,
			Conds: []scenario.Cond{scenario.AfterFault("malloc")}},
	}}
}

// Correlated runs the cascading-faultload experiment and checks that
// every injected write fault is correlated with (strictly follows) the
// malloc fault.
func Correlated() (*CorrelatedResult, error) {
	lc, err := libc.Compile()
	if err != nil {
		return nil, err
	}
	app, err := minic.Compile("correlated", correlatedAppSrc, obj.Executable)
	if err != nil {
		return nil, err
	}
	c, err := core.NewCampaign(core.CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "correlated",
		Plan:       CorrelatedPlan(),
	})
	if err != nil {
		return nil, err
	}
	rep, err := c.Run(100_000_000)
	switch {
	case err != nil:
		return nil, err
	case rep.Deadlocked:
		return nil, fmt.Errorf("correlated: app hung after %d cycles", rep.Cycles)
	case rep.Status.Signal != 0:
		return nil, fmt.Errorf("correlated: app died on signal %d", rep.Status.Signal)
	}

	res := &CorrelatedResult{ExitCode: rep.Status.Code, Log: rep.Injections}
	mallocSeen := false
	for _, r := range res.Log {
		switch r.Function {
		case "malloc":
			mallocSeen = true
			res.MallocFaultCall = r.CallCount
		case "write":
			if mallocSeen {
				res.WritesAfter++
			} else {
				res.WritesBefore++
			}
		}
	}
	if !mallocSeen {
		return nil, fmt.Errorf("correlated: upstream malloc fault never fired")
	}
	return res, nil
}

// Correlated reports whether the cascade held: write faults occurred,
// and none preceded the malloc fault.
func (r *CorrelatedResult) Correlated() bool { return r.WritesBefore == 0 && r.WritesAfter > 0 }

// Render summarises the experiment.
func (r *CorrelatedResult) Render() string {
	var b strings.Builder
	b.WriteString("§4 — correlated faultload (write fails with ENOSPC only after malloc has failed)\n")
	fmt.Fprintf(&b, "malloc fault fired on call %d; write faults: %d before, %d after (exit code %d)\n",
		r.MallocFaultCall, r.WritesBefore, r.WritesAfter, r.ExitCode)
	if r.Correlated() {
		b.WriteString("correlation holds: every injected write failure follows the allocation failure\n")
	} else {
		b.WriteString("CORRELATION VIOLATED\n")
	}
	for _, rec := range r.Log {
		fmt.Fprintf(&b, "  %s\n", rec.String())
	}
	return b.String()
}
