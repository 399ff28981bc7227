#!/bin/sh
# faultcheck.sh — end-to-end determinism check for the stateful
# degradation fault models (<delay> latency injection, <exhaust> disk
# quota and fd pressure).
#
# Builds the lfi CLI, generates the demo libc + a target that opens and
# writes a file (so disk exhaustion and fd pressure actually bind), runs
# a single-worker degradation sweep as the reference report, then
# sweeps the same matrix at 4 and 8 workers. Degradations mutate kernel
# state mid-run and ride memoized prefixes, so armed quotas and shrunk
# fd tables must restore bit-identically whichever worker ran them.
# Executor parity (the fresh-spawn oracle, memo off, a starved memo
# budget, the step interpreter) is checked in Go:
# TestDegradationSweepDeterminism runs every leg on both engines.
#
# Further legs: -faults all (errno + degradation concatenated),
# -store/-resume bookkeeping of degradation records, and replay
# fidelity — a replay plan minted from a degraded run must reproduce
# the original injection log byte for byte.
#
#   ./scripts/faultcheck.sh
set -eu
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/lfi-faultcheck-XXXXXX")"
trap 'rm -rf "$work"' EXIT

go build -o "$work/lfi" ./cmd/lfi

"$work/lfi" demo -o "$work" >/dev/null

cat >"$work/app.mc" <<'EOF'
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int write(int fd, byte *buf, int n);
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
}
EOF
"$work/lfi" build -exe -name app -o "$work/app.slef" "$work/app.mc" >/dev/null

base="-app $work/app.slef -lib $work/libc.slef -profile $work/libc.so.profile.xml"

echo "== single-worker degradation sweep (reference) =="
# shellcheck disable=SC2086
"$work/lfi" sweep $base -faults degradation -j 1 >"$work/ref.txt" 2>/dev/null
grep '^summary:' "$work/ref.txt"
for label in 'delay=' 'exhaust=disk:after=' 'exhaust=fds:slots='; do
	if ! grep -q "$label" "$work/ref.txt"; then
		echo "faultcheck: FAIL: reference report has no $label rows" >&2
		exit 1
	fi
done

echo "== every worker count must match byte for byte =="
for j in 4 8; do
	# shellcheck disable=SC2086
	"$work/lfi" sweep $base -faults degradation -j "$j" >"$work/got.txt" 2>/dev/null
	if ! cmp -s "$work/ref.txt" "$work/got.txt"; then
		echo "faultcheck: FAIL: report differs (j=$j)" >&2
		diff "$work/ref.txt" "$work/got.txt" >&2 || true
		exit 1
	fi
	echo "ok: j=$j"
done

echo "== -faults all is the errno matrix plus the degradation matrix =="
# shellcheck disable=SC2086
"$work/lfi" sweep $base -faults all -j 4 >"$work/all-j4.txt" 2>/dev/null
# shellcheck disable=SC2086
"$work/lfi" sweep $base -faults all -j 1 >"$work/all-j1.txt" 2>/dev/null
if ! cmp -s "$work/all-j4.txt" "$work/all-j1.txt"; then
	echo "faultcheck: FAIL: -faults all differs between 4 workers and 1" >&2
	diff "$work/all-j4.txt" "$work/all-j1.txt" >&2 || true
	exit 1
fi
if ! grep -q 'errno=' "$work/all-j4.txt" || ! grep -q 'exhaust=disk:after=' "$work/all-j4.txt"; then
	echo "faultcheck: FAIL: -faults all is missing a fault-model family" >&2
	exit 1
fi
echo "ok: -faults all"

echo "== degradation records resume from a persistent store =="
# shellcheck disable=SC2086
"$work/lfi" sweep $base -faults degradation -j 2 -store "$work/campaign" >/dev/null 2>&1
# shellcheck disable=SC2086
"$work/lfi" sweep $base -faults degradation -j 8 -store "$work/campaign" -resume >"$work/resumed.txt" 2>/dev/null
if ! cmp -s "$work/ref.txt" "$work/resumed.txt"; then
	echo "faultcheck: FAIL: resumed degradation report differs from reference" >&2
	diff "$work/ref.txt" "$work/resumed.txt" >&2 || true
	exit 1
fi
echo "ok: -store/-resume"

echo "== a minted replay plan reproduces the degraded run's log =="
cat >"$work/plan.xml" <<'EOF'
<plan>
  <function name="open" inject="1" once="true">
    <exhaust resource="disk" after="8"></exhaust>
  </function>
  <function name="write" inject="2" once="true" retval="-1" errno="ENOSPC" calloriginal="false">
    <delay cycles="1000"></delay>
  </function>
</plan>
EOF
# shellcheck disable=SC2086
"$work/lfi" run $base -plan "$work/plan.xml" -log "$work/log1.txt" -replay "$work/replay.xml" >"$work/run1.txt"
# shellcheck disable=SC2086
"$work/lfi" run $base -plan "$work/replay.xml" -log "$work/log2.txt" >"$work/run2.txt"
for f in log run; do
	if ! cmp -s "$work/${f}1.txt" "$work/${f}2.txt"; then
		echo "faultcheck: FAIL: replayed $f differs from the original degraded run" >&2
		diff "$work/${f}1.txt" "$work/${f}2.txt" >&2 || true
		exit 1
	fi
done
if ! grep -q 'exhaust=disk' "$work/log1.txt" || ! grep -q 'delay=1000' "$work/log1.txt"; then
	echo "faultcheck: FAIL: injection log does not record the degradations:" >&2
	cat "$work/log1.txt" >&2
	exit 1
fi
echo "ok: replay fidelity"

echo "faultcheck: OK"
