#!/bin/sh
# memocheck.sh — end-to-end report-determinism check for trigger-point
# prefix memoization.
#
# Builds the lfi CLI, generates the demo libc + a small target, runs a
# non-memoized snapshot sweep as the reference report, then sweeps the
# same matrix with the prefix memo cache (the -snapshot default) at
# 1/4/8 workers, with the default and a starved -memo-budget that forces
# evictions. Every report must be byte-identical: memoization shares the
# pre-fault prefix across experiments, it never changes what any
# experiment observes. The step-interpreter oracle is checked in Go
# (TestSweepMemoIdentical runs both engines).
#
# A second leg replays the -max-crashes and -store/-resume flows under
# memoization against their non-memoized counterparts — truncation and
# resume bookkeeping must not drift when entries are served from shared
# prefixes.
#
#   ./scripts/memocheck.sh
set -eu
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/lfi-memocheck-XXXXXX")"
trap 'rm -rf "$work"' EXIT

go build -o "$work/lfi" ./cmd/lfi

"$work/lfi" demo -o "$work" >/dev/null

cat >"$work/app.mc" <<'EOF'
needs "libc.so";
extern int strcmp(byte *a, byte *b);
extern int strncmp(byte *a, byte *b, int n);
extern byte *malloc(int n);
int main(void) {
  int r;
  byte *p;
  r = strcmp("a", "a");
  if (r != 0) { r = 0; }
  r = strncmp("ab", "ab", 2);
  if (r != 0) { r = 0; }
  p = malloc(4);
  p[0] = 'x';
  return 0;
}
EOF
"$work/lfi" build -exe -name app -o "$work/app.slef" "$work/app.mc" >/dev/null

base="-app $work/app.slef -lib $work/libc.slef -profile $work/libc.so.profile.xml"

echo "== non-memoized snapshot sweep (reference) =="
# shellcheck disable=SC2086
"$work/lfi" sweep $base -j 4 -snapshot -memo=false >"$work/ref.txt"
grep '^summary:' "$work/ref.txt"

echo "== memoized sweeps must match byte for byte =="
for mode in "-snapshot" "-snapshot -memo-budget 1"; do
	for j in 1 4 8; do
		# shellcheck disable=SC2086
		"$work/lfi" sweep $base -j "$j" $mode >"$work/got.txt" 2>"$work/stats.txt"
		if ! cmp -s "$work/ref.txt" "$work/got.txt"; then
			echo "memocheck: FAIL: report differs (j=$j mode='$mode')" >&2
			diff "$work/ref.txt" "$work/got.txt" >&2 || true
			exit 1
		fi
		if ! grep -q '^memo:' "$work/stats.txt"; then
			echo "memocheck: FAIL: no memo stats on stderr (j=$j mode='$mode')" >&2
			exit 1
		fi
		echo "ok: j=$j mode='$mode'"
	done
done

echo "== -max-crashes truncation must agree with the non-memoized sweep =="
# shellcheck disable=SC2086
"$work/lfi" sweep $base -j 1 -snapshot -memo=false -max-crashes 1 >"$work/crash-ref.txt"
# shellcheck disable=SC2086
"$work/lfi" sweep $base -j 1 -snapshot -max-crashes 1 >"$work/crash-memo.txt" 2>/dev/null
if ! cmp -s "$work/crash-ref.txt" "$work/crash-memo.txt"; then
	echo "memocheck: FAIL: -max-crashes reports differ" >&2
	diff "$work/crash-ref.txt" "$work/crash-memo.txt" >&2 || true
	exit 1
fi
echo "ok: -max-crashes 1"

echo "== resume from a half-completed store, memoized =="
# shellcheck disable=SC2086
"$work/lfi" sweep $base -j 2 -snapshot -max-crashes 1 -store "$work/campaign" >/dev/null 2>&1
# shellcheck disable=SC2086
"$work/lfi" sweep $base -j 4 -snapshot -store "$work/campaign" -resume >"$work/resumed.txt" 2>/dev/null
if ! cmp -s "$work/ref.txt" "$work/resumed.txt"; then
	echo "memocheck: FAIL: memoized resumed report differs from reference" >&2
	diff "$work/ref.txt" "$work/resumed.txt" >&2 || true
	exit 1
fi
echo "ok: -store/-resume"

echo "memocheck: OK"
