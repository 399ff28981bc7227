#!/bin/sh
# resumecheck.sh — end-to-end resume-determinism check for the
# persistent campaign store.
#
# Builds the lfi CLI, generates the demo libc + a small target with a
# crash path, then:
#
#   1. runs an uninterrupted full sweep (the reference report);
#   2. runs the same sweep into a -store, "killed" partway by
#      -max-crashes 1;
#   3. resumes from the half-completed store at several worker counts
#      and diffs every resumed report against the reference — any byte
#      of difference fails.
#
# The reference sweep must also print its prefix-memoization stats line
# to stderr, never to the report. Executor parity (fresh-spawn oracle
# vs snapshot restores, memo on/off, starved memo budgets) is checked
# in Go: TestSweepSnapshotIdentical, TestSweepMemoIdentical and
# TestSweepStoreResumeByteIdentical.
#
#   ./scripts/resumecheck.sh
set -eu
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/lfi-resumecheck-XXXXXX")"
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

echo "== uninterrupted full sweep (reference) =="
# shellcheck disable=SC2086
"$work/lfi" sweep $base -j 4 >"$work/fresh.txt" 2>"$work/stats.txt"
grep '^summary:' "$work/fresh.txt"
if ! grep -q '^memo:' "$work/stats.txt" || grep -q '^memo:' "$work/fresh.txt"; then
	echo "resumecheck: FAIL: memo stats must go to stderr, not the report" >&2
	exit 1
fi

echo "== killed campaign (-max-crashes 1 -> half-completed store) =="
# shellcheck disable=SC2086
"$work/lfi" sweep $base -j 2 -max-crashes 1 -store "$work/campaign" >"$work/partial.txt" 2>/dev/null
if cmp -s "$work/fresh.txt" "$work/partial.txt"; then
	echo "resumecheck: FAIL: -max-crashes run was not truncated" >&2
	exit 1
fi
wc -l <"$work/campaign/results.jsonl" | xargs echo "records persisted:"

echo "== resume: every report must be byte-identical to the reference =="
for j in 1 4 8; do
	# shellcheck disable=SC2086
	"$work/lfi" sweep $base -j "$j" -store "$work/campaign" -resume >"$work/resume.txt" 2>/dev/null
	if ! cmp -s "$work/fresh.txt" "$work/resume.txt"; then
		echo "resumecheck: FAIL: resumed report differs (j=$j)" >&2
		diff "$work/fresh.txt" "$work/resume.txt" >&2 || true
		exit 1
	fi
	echo "ok: j=$j"
done

echo "== triage + escalation render deterministically =="
# shellcheck disable=SC2086
"$work/lfi" sweep $base -j 4 -store "$work/campaign" -resume -triage -escalate >"$work/triage1.txt" 2>/dev/null
# shellcheck disable=SC2086
"$work/lfi" sweep $base -j 8 -store "$work/campaign" -resume -triage -escalate >"$work/triage2.txt" 2>/dev/null
if ! cmp -s "$work/triage1.txt" "$work/triage2.txt"; then
	echo "resumecheck: FAIL: triage/escalation output differs across runs" >&2
	diff "$work/triage1.txt" "$work/triage2.txt" >&2 || true
	exit 1
fi
grep 'crash triage:' "$work/triage1.txt"
grep 'escalation:' "$work/triage1.txt"

echo "resumecheck: OK"
