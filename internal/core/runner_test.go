package core

import (
	"testing"

	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/scenario"
)

// TestPruneBaselineSameGuest: the coverage-enabled baseline that feeds
// pruning must run the same guest as the plain baseline — the template
// with the sweep's stub surface preloaded — or every experiment it
// anchors (and the availability latency envelope) would be compared
// against cycles from a different program.
func TestPruneBaselineSameGuest(t *testing.T) {
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
int main(void) {
  int fd;
  fd = open("/data", 0, 0);
  if (fd >= 0) { close(fd); }
  return 0;
}
`, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CampaignConfig{
		Programs:   []*obj.File{lc, app},
		Executable: "app",
		Files:      map[string][]byte{"/data": []byte("x")},
	}
	exps := []Experiment{{Plan: &scenario.Plan{Triggers: []scenario.Trigger{
		{Function: "open", Inject: 1, Retval: "-1"},
		{Function: "write", Inject: 1, Retval: "-1"},
	}}}}
	for _, snapshot := range []bool{false, true} {
		r, err := newSnapshotRunner(cfg, exps, SweepOptions{Snapshot: snapshot})
		if err != nil {
			t.Fatal(err)
		}
		plain, _, err := r.baseline(DefaultSweepBudget, false)
		if err != nil {
			t.Fatal(err)
		}
		covered, called, err := r.baseline(DefaultSweepBudget, true)
		if err != nil {
			t.Fatal(err)
		}
		if covered.Cycles != plain.Cycles || covered.Status != plain.Status {
			t.Errorf("snapshot=%v: coverage baseline ran %d cycles (%+v), plain baseline %d (%+v)",
				snapshot, covered.Cycles, covered.Status, plain.Cycles, plain.Status)
		}
		if !called["open"] || !called["close"] || called["write"] {
			t.Errorf("snapshot=%v: called set = %v", snapshot, called)
		}
	}
}
