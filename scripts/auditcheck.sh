#!/bin/sh
# auditcheck.sh — end-to-end determinism check for the caller-side audit
# and the audit-prioritised execution order.
#
# Builds the lfi CLI, generates the demo libc + a target with a mix of
# checked and unchecked call sites, then proves two properties:
#
#   1. `lfi audit` is deterministic (byte-identical across runs), exits
#      nonzero exactly when unchecked sites exist, and classifies the
#      known sites correctly.
#   2. `lfi sweep -order=static` only reorders execution — the
#      reassembled report is byte-identical to the default-order sweep
#      at 1/4/8 workers. Executor parity (the fresh-spawn oracle, memo
#      off, the step interpreter) is checked in Go:
#      TestExecOrderReportByteIdentical runs every leg on both engines.
#
#   ./scripts/auditcheck.sh
set -eu
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/lfi-auditcheck-XXXXXX")"
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
  if (r != 0) { return 2; }
  r = strncmp("ab", "ab", 2);
  if (r != 0) { r = 0; }
  p = malloc(4);
  p[0] = 'x';
  return 0;
}
EOF
"$work/lfi" build -exe -name app -o "$work/app.slef" "$work/app.mc" >/dev/null

base="-app $work/app.slef -lib $work/libc.slef -profile $work/libc.so.profile.xml"

echo "== audit is deterministic and exits nonzero on unchecked sites =="
rc=0
"$work/lfi" audit -lib "$work/libc.slef" -profile "$work/libc.so.profile.xml" "$work/app.slef" >"$work/audit1.txt" 2>&1 || rc=$?
if [ "$rc" -eq 0 ]; then
	echo "auditcheck: FAIL: audit exited 0 with unchecked call sites present" >&2
	exit 1
fi
rc=0
"$work/lfi" audit -lib "$work/libc.slef" -profile "$work/libc.so.profile.xml" "$work/app.slef" >"$work/audit2.txt" 2>&1 || rc=$?
if ! cmp -s "$work/audit1.txt" "$work/audit2.txt"; then
	echo "auditcheck: FAIL: audit output differs between identical runs" >&2
	diff "$work/audit1.txt" "$work/audit2.txt" >&2 || true
	exit 1
fi
grep -q 'main -> strcmp: checked' "$work/audit1.txt"
grep -q 'main -> malloc: unchecked-clobbered' "$work/audit1.txt"
grep -q 'unchecked call site' "$work/audit1.txt"
echo "ok: audit deterministic, exit=$rc, classes as expected"

echo "== audit exits zero when every call site is checked =="
# The app alone, without the libc binary: the demo libc's own
# puts_fd -> write site is unchecked by design, so a clean exit is only
# expected when auditing the application's call sites.
cat >"$work/clean.mc" <<'EOF'
needs "libc.so";
extern int open(byte *path, int flags, int mode);
int main(void) {
  int fd;
  fd = open("/etc/motd", 0, 0);
  if (fd < 0) { return 2; }
  return 0;
}
EOF
"$work/lfi" build -exe -name clean -o "$work/clean.slef" "$work/clean.mc" >/dev/null
"$work/lfi" audit -profile "$work/libc.so.profile.xml" "$work/clean.slef" >"$work/clean.txt"
grep -q 'unchecked: 0 site(s)' "$work/clean.txt"
echo "ok: clean target audits clean"

echo "== default-order reference sweep =="
# shellcheck disable=SC2086
"$work/lfi" sweep $base -j 1 >"$work/ref.txt" 2>/dev/null
grep '^summary:' "$work/ref.txt"

echo "== -order=static reports must match byte for byte =="
for j in 1 4 8; do
	# shellcheck disable=SC2086
	"$work/lfi" sweep $base -order=static -j "$j" >"$work/got.txt" 2>/dev/null
	if ! cmp -s "$work/ref.txt" "$work/got.txt"; then
		echo "auditcheck: FAIL: static-order report differs (j=$j)" >&2
		diff "$work/ref.txt" "$work/got.txt" >&2 || true
		exit 1
	fi
	echo "ok: j=$j"
done

echo "== static order fronts the crash under -max-crashes 1 =="
# shellcheck disable=SC2086
"$work/lfi" sweep $base -j 1 -order=static -max-crashes 1 >"$work/first.txt" 2>/dev/null
if ! grep -q 'malloc.*crash' "$work/first.txt"; then
	echo "auditcheck: FAIL: first static-order experiment is not the unchecked malloc crash" >&2
	cat "$work/first.txt" >&2
	exit 1
fi
echo "ok: -order=static -max-crashes 1 lands on the unchecked malloc fault"

echo "auditcheck: OK"
