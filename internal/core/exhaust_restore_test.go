package core_test

import (
	"testing"

	"lfi/internal/apps"
	"lfi/internal/core"
	"lfi/internal/kernel"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// readCounter reads one traffic-client global out of a system's first
// process (the spawned driver).
func readCounter(t *testing.T, sys *vm.System, client, sym string) int32 {
	t.Helper()
	p := sys.Procs()[0]
	im, ok := p.ImageByName(client)
	if !ok {
		t.Fatalf("no image %q", client)
	}
	va, ok := im.SymbolVA(sym)
	if !ok {
		t.Fatalf("no symbol %q", sym)
	}
	v, err := p.ReadWord(va)
	if err != nil {
		t.Fatalf("read %s: %v", sym, err)
	}
	return v
}

// TestExhaustFDsAcceptSnapshotRestore composes <exhaust resource="fds">
// with the serving guest's accept and proves the armed+tripped state
// round-trips through a copy-on-write VM snapshot restore taken
// mid-connection: the fault fires mid-warmup, the starved accept leaves
// the client's connection queued on the backlog, and a snapshot frozen
// at that instant restores — on either engine — to a kernel that is
// still armed, still tripped, and still starving the same connection.
func TestExhaustFDsAcceptSnapshotRestore(t *testing.T) {
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "accept",
		Once:     true,
		Exhaust:  &scenario.Exhaust{Resource: scenario.ResourceFDs, Slots: 0},
		Conds:    []scenario.Cond{scenario.Calls(50, 0, 0)},
	}}}
	type endState struct {
		deg      kernel.DegradationState
		warmOK   int32
		warmFail int32
		done     int32
	}
	leg := func(engine string) endState {
		cfg, _ := availTarget(t, "minidb")
		cfg.Plan = plan
		cfg.VM.Engine = engine
		c, err := core.NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys := c.System()
		// Step the run in absolute-budget increments until the starved
		// accept trips the degradation — mid-warmup, mid-connection.
		var budget uint64
		for !sys.Kernel().Degradation().FDsTripped {
			budget += 200_000
			if budget > 50_000_000 {
				t.Fatal("fd pressure never tripped")
			}
			if err := sys.Run(budget); err != nil && err != vm.ErrBudget {
				t.Fatalf("run: %v", err)
			}
		}
		want := sys.Kernel().Degradation()
		if !want.FDsArmed || !want.FDsTripped {
			t.Fatalf("trip state = %+v", want)
		}

		snap, err := sys.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		rsys := snap.Restore()
		if got := rsys.Kernel().Degradation(); got != want {
			t.Fatalf("engine=%s restored degradation = %+v, want %+v", engine, got, want)
		}
		// Resume the restored run: the accept stays starved, the client
		// stays queued, and the run burns down to its budget — a wedge.
		if err := rsys.Run(budget + 2_000_000); err != vm.ErrBudget {
			t.Fatalf("engine=%s resumed run = %v, want ErrBudget", engine, err)
		}
		client := apps.AvailClientName("minidb")
		return endState{
			deg:      rsys.Kernel().Degradation(),
			warmOK:   readCounter(t, rsys, client, "av_warm_ok"),
			warmFail: readCounter(t, rsys, client, "av_warm_fail"),
			done:     readCounter(t, rsys, client, "av_done"),
		}
	}

	got := leg(vm.EngineBlock)
	if step := leg(vm.EngineStep); got != step {
		t.Fatalf("engines diverged:\nblock = %+v\nstep  = %+v", got, step)
	}
	if !got.deg.FDsArmed || !got.deg.FDsTripped {
		t.Fatalf("end degradation = %+v, want armed+tripped", got.deg)
	}
	if got.done != 0 {
		t.Fatal("client completed its phases under a starved accept")
	}
	// The fault fired at accept call 51: fifty warmup requests were
	// served before it, none failed fast (the listener stays alive, so
	// the client blocks in recv rather than erroring).
	if got.warmOK != 50 || got.warmFail != 0 {
		t.Fatalf("warmup counters = %d ok / %d fail, want 50/0", got.warmOK, got.warmFail)
	}
}
