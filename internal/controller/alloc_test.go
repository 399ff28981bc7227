package controller_test

import (
	"testing"

	"lfi/internal/asm"
	"lfi/internal/controller"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// TestInterceptionAllocFree extends vm's TestEngineAllocFree to the
// interception path: a guest loop calls through the stub library into a
// function the plan has no trigger for and into a triggered function
// whose <calls after=…> window never opens. On the block engine, after a
// snapshot restore (the sweep executor's path), neither call may
// allocate on the host.
func TestInterceptionAllocFree(t *testing.T) {
	lib, err := asm.Assemble("libt.s", `
.lib libt.so
.global f
.global g
.func f
  mov r0, 0
  ret
.endfunc
.func g
  mov r0, 1
  ret
.endfunc
`)
	if err != nil {
		t.Fatal(err)
	}
	app, err := asm.Assemble("app.s", `
.exe app
.needs libt.so
.extern f
.extern g
.global main
.func main
.loop:
  call f
  call g
  jmp .loop
.endfunc
`)
	if err != nil {
		t.Fatal(err)
	}
	stubs, err := controller.NewStubSet([]string{"f", "g"})
	if err != nil {
		t.Fatal(err)
	}
	sys := vm.NewSystem(vm.Options{Engine: vm.EngineBlock, StackSize: 1 << 13})
	sys.Register(lib)
	sys.Register(app)
	stubs.InstallTemplate(sys)
	if _, err := sys.Spawn("app", vm.SpawnConfig{Preload: stubs.PreloadList()}); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "g",
		Retval:   "-1",
		Conds:    []scenario.Cond{scenario.Calls(1<<30, 0, 0)},
	}}}
	run := snap.Restore()
	ctl := controller.NewWithStubs(stubs, scenario.MustCompile(plan, nil))
	if err := ctl.Install(run); err != nil {
		t.Fatal(err)
	}
	// Warm the evaluator, the segment windows and block dispatch.
	if err := run.RunUntil(nil, 10_000); err != vm.ErrBudget {
		t.Fatalf("warmup: %v", err)
	}
	before := run.TotalCycles
	allocs := testing.AllocsPerRun(10, func() {
		if err := run.RunUntil(nil, 50_000); err != vm.ErrBudget {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs > 0 {
		t.Errorf("interception allocates %.1f objects per 50k cycles, want 0", allocs)
	}
	if len(ctl.Log()) != 0 {
		t.Errorf("injections = %v, want none (window never opens)", ctl.Log())
	}
	if run.TotalCycles == before {
		t.Error("guest made no progress")
	}
}
