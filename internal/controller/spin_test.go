package controller

// The lockstep oracle for the block engine's spin fast-forward
// (vm/spin.go): a stub-intercepted server spins on a failing accept
// under exhaust=fds:slots=0 while its client waits for a reply, and
// both engines run it to the same budgets. The step engine never
// jumps, so every register, guest page, cycle counter, kernel state,
// injection log and evaluator count it ends with is the reference.

import (
	"encoding/xml"
	"reflect"
	"strings"
	"testing"

	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// spinServer accepts connections on port 7 and echoes one message
// each; a failed accept retries at once. @FAIL@ is spliced into the
// retry path.
const spinServer = `
needs "libc.so";
extern int socket(int d);
extern int listen(int fd, int port);
extern int accept(int fd);
extern int recv(int fd, byte *buf, int n);
extern int send(int fd, byte *buf, int n);
extern int close(int fd);
int served = 0;
int tries = 0;
int main(void) {
  int lfd;
  int cfd;
  int n;
  byte buf[8];
  lfd = socket(1);
  if (listen(lfd, 7) != 0) { return 1; }
  while (1) {
    cfd = accept(lfd);
    if (cfd < 0) {
      @FAIL@
      continue;
    }
    n = recv(cfd, buf, 8);
    if (n > 0) { send(cfd, buf, n); }
    close(cfd);
    served = served + 1;
  }
  return 0;
}
`

// spinClient spawns the server (and @SPAWN@), then sends it 40
// requests, each on a fresh connection, waiting for every reply.
const spinClient = `
needs "libc.so";
extern int spawn(byte *prog, int fdin, int fdout);
extern int socket(int d);
extern int connect(int fd, int port);
extern int recv(int fd, byte *buf, int n);
extern int send(int fd, byte *buf, int n);
extern int close(int fd);
extern int yield(void);
int main(void) {
  int i;
  int fd;
  int n;
  byte buf[8];
  if (spawn("spinsrv", 0, 0) < 0) { return 9; }
  @SPAWN@
  for (i = 0; i < 40; i = i + 1) {
    fd = socket(1);
    while (connect(fd, 7) != 0) { yield(); }
    send(fd, "ping", 4);
    n = recv(fd, buf, 8);
    close(fd);
  }
  return 0;
}
`

// spinBusy never blocks: a second runnable process.
const spinBusy = `
needs "libc.so";
extern int yield(void);
int main(void) {
  while (1) { yield(); }
  return 0;
}
`

// spinFireAfter is the one-shot window: the exhaustion arms at the
// server's 13th accept, with the client's 13th request queued.
const spinFireAfter = 12

// spinPlan is the availability matrix's fd-pressure faultload on
// accept, plus extra triggers.
func spinPlan(extra ...scenario.Trigger) *scenario.Plan {
	return &scenario.Plan{Triggers: append([]scenario.Trigger{{
		Function: "accept", Once: true,
		Conds:   []scenario.Cond{scenario.Calls(spinFireAfter, 0, 0)},
		Exhaust: &scenario.Exhaust{Resource: scenario.ResourceFDs, Slots: 0},
	}}, extra...)}
}

// spinCase is one guest variant: what the server's retry path does,
// what else the client spawns, and the faultload.
type spinCase struct {
	fail, spawn string
	plan        *scenario.Plan
}

// spinRun is one system under test with what the comparison needs.
type spinRun struct {
	sys *vm.System
	ctl *Controller
	// stackTop and heapBase locate every process's stack and heap
	// (each process has its own address space, all at one layout).
	stackTop, heapBase uint32
	// evals records the server's TotalCycles at each intercepted call.
	evals []uint64
}

func spinSystem(t *testing.T, engine string, opts vm.Options, c spinCase) *spinRun {
	t.Helper()
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	opts.Engine = engine
	sys := vm.NewSystem(opts)
	sys.Register(lc)
	for name, src := range map[string]string{
		"spinsrv":  strings.Replace(spinServer, "@FAIL@", c.fail, 1),
		"spincli":  strings.Replace(spinClient, "@SPAWN@", c.spawn, 1),
		"spinbusy": spinBusy,
	} {
		f, err := minic.Compile(name, src, obj.Executable)
		if err != nil {
			t.Fatalf("compile %s: %v", name, err)
		}
		sys.Register(f)
	}
	r := &spinRun{sys: sys, ctl: New(nil, c.plan)}
	if err := r.ctl.Install(sys); err != nil {
		t.Fatal(err)
	}
	// Record the server's calls through the evaluator, keeping its
	// spin prover.
	sys.RegisterHostSpin(evalHostFunc, func(hc *vm.HostCall) int32 {
		if hc.Proc.ID == 2 {
			r.evals = append(r.evals, hc.Sys.TotalCycles)
		}
		return r.ctl.evalTrigger(hc)
	}, &r.ctl.spin)
	p, err := sys.Spawn("spincli", vm.SpawnConfig{Preload: r.ctl.PreloadList()})
	if err != nil {
		t.Fatal(err)
	}
	// The 1 MiB stack ends at a MiB boundary a few words above the
	// initial SP; the heap starts at the initial break.
	r.stackTop = (p.Regs[6] + 1<<20 - 1) &^ (1<<20 - 1)
	r.heapBase = uint32(p.Brk(0))
	return r
}

// memory reads every writable byte of p: each image's data and TLS,
// the stack and the heap.
func (r *spinRun) memory(t *testing.T, p *vm.Proc) [][]byte {
	t.Helper()
	var out [][]byte
	read := func(addr uint32, n int) {
		if n == 0 {
			return
		}
		b, err := p.ReadBytes(addr, int32(n))
		if err != nil {
			t.Fatalf("pid %d: read %#x+%d: %v", p.ID, addr, n, err)
		}
		out = append(out, b)
	}
	for _, im := range p.Images {
		read(im.DataBase, int(im.File.DataSize))
		read(im.TLSBase, int(im.File.TLSSize))
	}
	read(r.stackTop-1<<20, 1<<20)
	read(r.heapBase, int(uint32(p.Brk(0))-r.heapBase))
	return out
}

// sameState fails unless the block run ended where the step run did.
func sameState(t *testing.T, what string, step, block *spinRun) {
	t.Helper()
	a, b := step.sys, block.sys
	if a.TotalCycles != b.TotalCycles {
		t.Fatalf("%s: TotalCycles %d (step) != %d (block)", what, a.TotalCycles, b.TotalCycles)
	}
	pa, pb := a.Procs(), b.Procs()
	if len(pa) != len(pb) {
		t.Fatalf("%s: %d processes (step) != %d (block)", what, len(pa), len(pb))
	}
	for i := range pa {
		x, y := pa[i], pb[i]
		if x.PC != y.PC || x.Regs != y.Regs || x.Cycles != y.Cycles || x.Exited != y.Exited || x.Status != y.Status {
			t.Fatalf("%s: pid %d: step pc=%#x regs=%v cycles=%d exited=%v, block pc=%#x regs=%v cycles=%d exited=%v",
				what, x.ID, x.PC, x.Regs, x.Cycles, x.Exited, y.PC, y.Regs, y.Cycles, y.Exited)
		}
		if !reflect.DeepEqual(x.CallStack, y.CallStack) {
			t.Fatalf("%s: pid %d: call stack %v (step) != %v (block)", what, x.ID, x.CallStack, y.CallStack)
		}
		if !reflect.DeepEqual(step.memory(t, x), block.memory(t, y)) {
			t.Fatalf("%s: pid %d: memory differs", what, x.ID)
		}
		for j, im := range x.Images {
			if !reflect.DeepEqual(im.CoverBits, y.Images[j].CoverBits) {
				t.Fatalf("%s: pid %d: coverage of %s differs", what, x.ID, im.File.Name)
			}
		}
		sa, sb := evalState(step.ctl, x.ID), evalState(block.ctl, y.ID)
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("%s: pid %d: evaluator %+v (step) != %+v (block)", what, x.ID, sa, sb)
		}
	}
	if !a.Kernel().Snapshot().Same(b.Kernel()) {
		t.Fatalf("%s: kernel state differs", what)
	}
	if la, lb := step.ctl.Log(), block.ctl.Log(); !reflect.DeepEqual(la, lb) {
		t.Fatalf("%s: injection log %v (step) != %v (block)", what, la, lb)
	}
}

func evalState(c *Controller, pid int) *scenario.EvalState {
	if ev, ok := c.evals[pid]; ok {
		st := ev.State()
		return &st
	}
	return nil
}

// runBoth runs the case to the budget on both engines, checks the ends
// are equal and returns the block engine's skipped cycles.
func runBoth(t *testing.T, what string, opts vm.Options, c spinCase, budget uint64) uint64 {
	t.Helper()
	step := spinSystem(t, vm.EngineStep, opts, c)
	block := spinSystem(t, vm.EngineBlock, opts, c)
	ea, eb := step.sys.Run(budget), block.sys.Run(budget)
	if ea != vm.ErrBudget || eb != vm.ErrBudget {
		t.Fatalf("%s: step err %v, block err %v; want both %v", what, ea, eb, vm.ErrBudget)
	}
	if step.sys.SkippedCycles() != 0 {
		t.Fatalf("%s: the step engine skipped %d cycles", what, step.sys.SkippedCycles())
	}
	sameState(t, what, step, block)
	return block.sys.SkippedCycles()
}

// spinProbe runs the wedged case on the step engine and returns the
// TotalCycles of the server's intercepted calls from the fire on, up
// to about limit cycles.
func spinProbe(t *testing.T, opts vm.Options, c spinCase, limit uint64) []uint64 {
	t.Helper()
	r := spinSystem(t, vm.EngineStep, opts, c)
	if err := r.sys.Run(limit); err != vm.ErrBudget {
		t.Fatalf("probe: err %v, want the budget", err)
	}
	if len(r.ctl.Log()) != 1 || len(r.evals) < spinFireAfter+10 {
		t.Fatalf("probe: %d injections, %d server calls: the guest did not wedge", len(r.ctl.Log()), len(r.evals))
	}
	return r.evals[spinFireAfter:]
}

// TestSpinFastForwardLockstep runs the wedged server to budgets inside
// the spin's first period, mid-period and at a period boundary far into
// the spin, at time slices sharing factors with the period and coprime
// to it, with coverage on at one of them. The block engine must end in
// the step engine's state, coverage bits included, having skipped
// cycles at the far budgets.
func TestSpinFastForwardLockstep(t *testing.T) {
	wedge := spinCase{plan: spinPlan()}
	for _, opts := range []vm.Options{{TimeSlice: 4096, Coverage: true}, {TimeSlice: 4093}, {TimeSlice: 64}, {TimeSlice: 7}} {
		calls := spinProbe(t, opts, wedge, 3_000_000)
		n := len(calls)
		budgets := []struct {
			name   string
			budget uint64
			jumps  bool
		}{
			{"first period", calls[1] + 5, false},
			{"mid-period", (calls[n-3] + calls[n-2]) / 2, true},
			{"period boundary", calls[n-2], true},
			{"after boundary", calls[n-2] + 1, true},
		}
		for _, b := range budgets {
			what := b.name
			skipped := runBoth(t, what, opts, wedge, b.budget)
			if b.jumps && skipped == 0 {
				t.Errorf("slice %d, %s (budget %d): the block engine skipped no cycles", opts.TimeSlice, what, b.budget)
			}
			if !b.jumps && skipped != 0 {
				t.Errorf("slice %d, %s (budget %d): skipped %d cycles inside the first period", opts.TimeSlice, what, b.budget, skipped)
			}
		}
	}
}

// TestSpinFastForwardRefuses runs spins the block engine must not jump:
// each changes something a jump would skip, and must end exactly where
// the step engine ends.
func TestSpinFastForwardRefuses(t *testing.T) {
	far := func(cond scenario.Cond) scenario.Trigger {
		return scenario.Trigger{Function: "accept", Retval: "-1", Conds: []scenario.Cond{cond}}
	}
	for _, c := range []struct {
		name string
		spinCase
	}{
		// The retry path counts its failures in a guest global.
		{"global counter", spinCase{fail: "tries = tries + 1;", plan: spinPlan()}},
		// A live trigger keeps evaluating every call: a late window, a
		// cycle window and a coin flip, none of which fires in time.
		{"every", spinCase{plan: spinPlan(far(scenario.Calls(1_000_000, 1000, 0)))}},
		{"cycles", spinCase{plan: spinPlan(far(scenario.Cond{XMLName: xml.Name{Local: "cycles"}, Min: 1 << 40}))}},
		{"probability", spinCase{plan: spinPlan(far(scenario.Cond{XMLName: xml.Name{Local: "probability"}, Pct: 1e-9}))}},
		// Another process stays runnable.
		{"runnable peer", spinCase{spawn: `spawn("spinbusy", 0, 0);`, plan: spinPlan()}},
	} {
		if skipped := runBoth(t, c.name, vm.Options{}, c.spinCase, 3_000_000); skipped != 0 {
			t.Errorf("%s: the block engine skipped %d cycles", c.name, skipped)
		}
	}
}
