package controller_test

import (
	"reflect"
	"strings"
	"testing"

	"lfi/internal/controller"
	"lfi/internal/scenario"
)

// normalizeLog strips the fields that legitimately differ between an
// original run and its replay: virtual cycles depend on how many
// triggers guard each function (the replay plan's trigger count differs
// from the original's), so Cycle is not part of the fidelity contract.
// Everything else — function, call count, retval, errno (and whether
// its store resolved), applied and failed modifications, pass-through
// flag, pid and backtrace — must match record for record.
func normalizeLog(log []controller.InjectionRecord) []controller.InjectionRecord {
	out := append([]controller.InjectionRecord(nil), log...)
	for i := range out {
		out[i].Cycle = 0
	}
	return out
}

// replayOracle runs plan, replays its generated script, and requires
// the two injection logs and exit statuses to be indistinguishable.
func replayOracle(t *testing.T, name, src string, plan *scenario.Plan) {
	t.Helper()
	set := libcProfiles(t)
	st1, ctl1 := runWithPlan(t, src, plan, set)
	log1 := ctl1.Log()
	if len(log1) == 0 {
		t.Fatalf("%s: original run injected nothing — oracle is vacuous", name)
	}
	replay := ctl1.ReplayPlan()
	st2, ctl2 := runWithPlan(t, src, replay, set)
	if st2 != st1 {
		t.Errorf("%s: replay status = %+v, original %+v", name, st2, st1)
	}
	log2 := ctl2.Log()
	if !reflect.DeepEqual(normalizeLog(log1), normalizeLog(log2)) {
		t.Errorf("%s: replayed injection log diverges:\n--- original ---\n%+v\n--- replay ---\n%+v",
			name, normalizeLog(log1), normalizeLog(log2))
	}
}

// TestReplayFidelityErrnoOnly: an errno-only injection (no explicit
// retval; the compiler supplies the C-convention -1) must re-fire
// identically from its replay script. Retval paths were already
// covered; this is the errno half of the §5.2 replay contract.
func TestReplayFidelityErrnoOnly(t *testing.T) {
	replayOracle(t, "errno-only", appHeader+`
int main(void) {
  int fd;
  int r;
  fd = open("/f", 65, 0);
  errno = 0;
  r = close(fd);
  if (r == -1 && errno == 9) { return 42; }
  return 1;
}`, &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "close", Inject: 1, Errno: "EBADF",
	}}})
}

// TestReplayFidelityErrnoPassThrough: errno set while the original is
// still called (calloriginal="true") — the injection is a pure side
// effect, and the replay must reproduce exactly that shape.
func TestReplayFidelityErrnoPassThrough(t *testing.T) {
	replayOracle(t, "errno-passthrough", appHeader+`
int main(void) {
  int fd;
  int r;
  fd = open("/f", 65, 0);
  errno = 0;
  r = close(fd);
  if (r == 0 && errno == 4) { return 42; }
  return 1;
}`, &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "close", Inject: 1, Errno: "EINTR", CallOriginal: true,
	}}})
}

// TestReplayFidelityArgumentModification: a modify-and-pass-through
// injection must re-apply the same argument rewrite at the same call.
func TestReplayFidelityArgumentModification(t *testing.T) {
	replayOracle(t, "modify", appHeader+`
int main(void) {
  int fd;
  int i;
  int total;
  fd = open("/f", 65, 0);
  total = 0;
  for (i = 0; i < 3; i = i + 1) {
    total = total + write(fd, "0123456789", 10);
  }
  return total;   // 10 + 6 + 10: the 2nd write is shortened
}`, &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "write", Inject: 2, CallOriginal: true,
		Modify: []scenario.Modify{{Argument: 3, Op: "sub", Value: 4}},
	}}})
}

// TestReplayFidelityPartialModify: when the original run could only
// partially apply its modifications (one target address invalid), the
// replay must fail the same subset — the replayed log carries the same
// ModifyFailed set, not a cleaner one.
func TestReplayFidelityPartialModify(t *testing.T) {
	replayOracle(t, "partial-modify", appHeader+`
int main(void) {
  int fd;
  fd = open("/f", 65, 0);
  return write(fd, "0123456789", 10);
}`, &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "write", Inject: 1, CallOriginal: true,
		Modify: []scenario.Modify{
			{Argument: 3, Op: "sub", Value: 4},
			{Argument: 500000, Op: "set", Value: 1},
		},
	}}})
}

// TestReplayFidelityMixed: a multi-trigger faultload combining an
// errno-only fault, a retval fault and an argument modification in one
// run — the composite log must survive the round trip.
func TestReplayFidelityMixed(t *testing.T) {
	replayOracle(t, "mixed", appHeader+`
int main(void) {
  int fd;
  int r;
  byte buf[16];
  fd = open("/f", 65, 0);
  write(fd, "0123456789", 10);
  r = read(fd, buf, 10);
  errno = 0;
  close(fd);
  return r;
}`, &scenario.Plan{Triggers: []scenario.Trigger{
		{Function: "write", Inject: 1, CallOriginal: true,
			Modify: []scenario.Modify{{Argument: 3, Op: "sub", Value: 2}}},
		{Function: "read", Inject: 1, Retval: "-1", Errno: "EIO"},
		{Function: "close", Inject: 1, Errno: "EBADF"},
	}})
}

// TestReplayFidelityDegraded: a replay plan minted from a degraded run —
// disk exhaustion armed at open, an injected delay plus ENOSPC at write
// — re-arms the same degradations and reproduces the run: the same exit
// status and the same injection log, cycles included (the replay
// guards each function with as many triggers as the original).
func TestReplayFidelityDegraded(t *testing.T) {
	src := appHeader + `
int main(void) {
  int fd;
  int i;
  fd = open("/out", 65, 0);
  if (fd < 0) { return 3; }
  i = 0;
  while (i < 4) {
    if (write(fd, "abcdefgh", 8) < 8) { close(fd); return 4; }
    i = i + 1;
  }
  close(fd);
  return 0;
}`
	plan, err := scenario.Unmarshal([]byte(`<plan>
  <function name="open" inject="1" once="true">
    <exhaust resource="disk" after="8"></exhaust>
  </function>
  <function name="write" inject="2" once="true" retval="-1" errno="ENOSPC" calloriginal="false">
    <delay cycles="1000"></delay>
  </function>
</plan>`))
	if err != nil {
		t.Fatal(err)
	}
	set := libcProfiles(t)
	st1, ctl1 := runWithPlan(t, src, plan, set)
	st2, ctl2 := runWithPlan(t, src, ctl1.ReplayPlan(), set)
	if st2 != st1 {
		t.Errorf("replay status = %+v, original %+v", st2, st1)
	}
	var log1, log2 []string
	for _, r := range ctl1.Log() {
		log1 = append(log1, r.String())
	}
	for _, r := range ctl2.Log() {
		log2 = append(log2, r.String())
	}
	if !reflect.DeepEqual(log1, log2) {
		t.Errorf("replayed injection log diverges:\n--- original ---\n%s\n--- replay ---\n%s",
			strings.Join(log1, "\n"), strings.Join(log2, "\n"))
	}
	all := strings.Join(log1, "\n")
	if !strings.Contains(all, "exhaust=disk") || !strings.Contains(all, "delay=1000") {
		t.Errorf("injection log does not record the degradations:\n%s", all)
	}
}

// TestReplayPlanPinsPid: replay scripts pin each trigger to the pid
// that logged it, so a record's PID survives the round trip (guarded
// here because the oracle's DeepEqual relies on it).
func TestReplayPlanPinsPid(t *testing.T) {
	set := libcProfiles(t)
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "close", Inject: 1, Retval: "-1", Errno: "EBADF",
	}}}
	src := appHeader + `
int main(void) {
  int fd;
  fd = open("/f", 65, 0);
  close(fd);
  return 0;
}`
	_, ctl := runWithPlan(t, src, plan, set)
	replay := ctl.ReplayPlan()
	if len(replay.Triggers) != 1 || replay.Triggers[0].Pid != ctl.Log()[0].PID {
		t.Errorf("replay trigger not pid-pinned: %+v", replay.Triggers)
	}
}

// TestStackHashAndLogDigest pins the triage hash contract: stable for
// equal inputs, sensitive to the frames, falling back to the last
// logged backtrace when no crash stack exists, and empty when there is
// nothing to hash.
func TestStackHashAndLogDigest(t *testing.T) {
	stack := []string{"close", "leaf", "main"}
	h1 := controller.StackHash(stack, nil)
	if h1 == "" || len(h1) != 16 {
		t.Fatalf("hash = %q, want 16 hex digits", h1)
	}
	if h2 := controller.StackHash([]string{"close", "leaf", "main"}, nil); h2 != h1 {
		t.Errorf("equal stacks hash differently: %q vs %q", h1, h2)
	}
	if h := controller.StackHash([]string{"close", "mid", "main"}, nil); h == h1 {
		t.Error("different stacks must not collide on these inputs")
	}
	// Frame-boundary sensitivity: ["ab","c"] vs ["a","bc"].
	if controller.StackHash([]string{"ab", "c"}, nil) == controller.StackHash([]string{"a", "bc"}, nil) {
		t.Error("frame boundaries must participate in the hash")
	}
	log := []controller.InjectionRecord{{Function: "close", Stack: stack}}
	if h := controller.StackHash(nil, log); h != h1 {
		t.Errorf("injection-log fallback = %q, want the stack's hash %q", h, h1)
	}
	if h := controller.StackHash(nil, nil); h != "" {
		t.Errorf("nothing to hash must yield empty, got %q", h)
	}

	if d := controller.LogDigest(nil); d != "" {
		t.Errorf("empty log digest = %q", d)
	}
	d1 := controller.LogDigest(log)
	if d1 == "" || controller.LogDigest(log) != d1 {
		t.Errorf("log digest unstable: %q", d1)
	}
	log2 := []controller.InjectionRecord{{Function: "read", Stack: stack}}
	if controller.LogDigest(log2) == d1 {
		t.Error("different logs must not collide on these inputs")
	}
}
