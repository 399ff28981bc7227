package controller_test

import (
	"math/rand"
	"strconv"
	"testing"

	"lfi/internal/controller"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// TestRandomPlansNeverWedgeTheVM is a stress property: arbitrary
// single-function plans (random call counts, retvals, errnos, argument
// modifications, probabilities) against an I/O-heavy app must always
// leave the VM in a defined state — normal exit, signal, or clean budget
// stop — never a Go panic or an undetected hang.
func TestRandomPlansNeverWedgeTheVM(t *testing.T) {
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("stress", appHeader+`
int main(void) {
  int fd;
  int i;
  int n;
  byte buf[32];
  for (i = 0; i < 6; i = i + 1) {
    fd = open("/s", 64 | 1, 0);
    if (fd < 0) { continue; }
    n = write(fd, "data", 4);
    if (n < 0) { close(fd); continue; }
    close(fd);
    fd = open("/s", 0, 0);
    if (fd >= 0) {
      read(fd, buf, 32);
      close(fd);
    }
  }
  return 0;
}`, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}

	fns := []string{"open", "close", "read", "write"}
	ops := []string{"set", "add", "sub"}
	errnos := []string{"", "EBADF", "EIO", "ENOMEM", "22", "EINTR"}
	rng := rand.New(rand.NewSource(4242))

	for i := 0; i < 60; i++ {
		plan := &scenario.Plan{Seed: int64(i)}
		nTrig := 1 + rng.Intn(4)
		for j := 0; j < nTrig; j++ {
			tr := scenario.Trigger{
				Function: fns[rng.Intn(len(fns))],
				Inject:   int32(rng.Intn(8)),
				Errno:    errnos[rng.Intn(len(errnos))],
			}
			switch rng.Intn(3) {
			case 0:
				tr.Retval = strconv.Itoa(rng.Intn(64) - 48)
			case 1:
				tr.Probability = float64(rng.Intn(100) + 1)
				tr.Random = true
			default:
				tr.CallOriginal = true
				tr.Modify = []scenario.Modify{{
					Argument: int32(rng.Intn(3) + 1),
					Op:       ops[rng.Intn(len(ops))],
					Value:    int32(rng.Intn(100) - 50),
				}}
			}
			plan.Triggers = append(plan.Triggers, tr)
		}

		sys := vm.NewSystem(vm.Options{})
		sys.Register(lc)
		sys.Register(app)
		ctl, err := controller.NewForPlan(libcProfiles(t), plan)
		if err != nil {
			t.Fatalf("plan %d: bind: %v", i, err)
		}
		if err := ctl.Install(sys); err != nil {
			t.Fatalf("plan %d: install: %v", i, err)
		}
		p, err := sys.Spawn("stress", vm.SpawnConfig{Preload: []string{controller.StubLibName}})
		if err != nil {
			t.Fatalf("plan %d: spawn: %v", i, err)
		}
		err = sys.Run(20_000_000)
		switch err {
		case nil, vm.ErrBudget, vm.ErrDeadlock:
			// Defined terminal states.
		default:
			t.Fatalf("plan %d: unexpected error %v", i, err)
		}
		if err == nil && !p.Exited {
			t.Fatalf("plan %d: run returned without exit", i)
		}
		// The plan XML must survive a round trip regardless of content.
		blob, merr := plan.Marshal()
		if merr != nil {
			t.Fatalf("plan %d: marshal: %v", i, merr)
		}
		if _, uerr := scenario.Unmarshal(blob); uerr != nil {
			t.Fatalf("plan %d: unmarshal: %v", i, uerr)
		}
	}
}
