#!/bin/sh
# availcheck.sh — end-to-end determinism check for the traffic-driven
# availability harness.
#
# Builds the lfi CLI and runs `lfi sweep -avail minidb` — a generated
# MiniC client pumping phased request traffic through the kernel's
# loopback sockets at the retrying WAL server while the fault matrix
# (one-shot errno, <delay>, <exhaust disk/fds>) opens mid-steady-state
# — as the single-worker reference report. The same sweep must then
# render byte-identically at 4 and 8 workers: availability classes and
# per-phase served counts are computed from guest memory after
# multi-process request/response traffic, so any scheduling-visible
# divergence shows up as a flipped class or a shifted count. Executor
# parity (the fresh-spawn oracle, memo off, a starved memo budget, the
# step interpreter) is checked in Go: TestAvailabilitySweepDeterminism
# runs every leg on both engines.
#
# Further legs: -store/-resume bookkeeping of availability records
# (classes and served counts round-trip through the JSONL store), the
# availability triage clustering, and the non-retrying server's
# flagship divergence (write/errno: recovered vs degraded).
#
#   ./scripts/availcheck.sh
set -eu
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/lfi-availcheck-XXXXXX")"
trap 'rm -rf "$work"' EXIT

go build -o "$work/lfi" ./cmd/lfi

echo "== single-worker availability sweep (reference) =="
"$work/lfi" sweep -avail minidb -j 1 >"$work/ref.txt" 2>/dev/null
grep '^summary:' "$work/ref.txt"
for label in 'avail=recovered' 'avail=degraded' 'avail=wedged' 'served=200/'; do
	if ! grep -q "$label" "$work/ref.txt"; then
		echo "availcheck: FAIL: reference report has no $label rows" >&2
		exit 1
	fi
done

echo "== every worker count must match byte for byte =="
for j in 4 8; do
	"$work/lfi" sweep -avail minidb -j "$j" >"$work/got.txt" 2>/dev/null
	if ! cmp -s "$work/ref.txt" "$work/got.txt"; then
		echo "availcheck: FAIL: report differs (j=$j)" >&2
		diff "$work/ref.txt" "$work/got.txt" >&2 || true
		exit 1
	fi
	echo "ok: j=$j"
done

echo "== availability records resume from a persistent store =="
"$work/lfi" sweep -avail minidb -j 2 -store "$work/campaign" >/dev/null 2>&1
"$work/lfi" sweep -avail minidb -j 8 -store "$work/campaign" -resume >"$work/resumed.txt" 2>/dev/null
if ! cmp -s "$work/ref.txt" "$work/resumed.txt"; then
	echo "availcheck: FAIL: resumed availability report differs from reference" >&2
	diff "$work/ref.txt" "$work/resumed.txt" >&2 || true
	exit 1
fi
echo "ok: -store/-resume"

echo "== triage clusters availability failures by class =="
"$work/lfi" sweep -avail minidb -j 4 -store "$work/campaign" -resume -triage >"$work/triaged.txt" 2>/dev/null
for label in 'cluster 1 \[degraded\] reach=4' '\[wedged\] reach=3' 'avail=wedged served=' 'avail=degraded served='; do
	if ! grep -q "$label" "$work/triaged.txt"; then
		echo "availcheck: FAIL: triage is missing $label:" >&2
		cat "$work/triaged.txt" >&2
		exit 1
	fi
done
echo "ok: -triage"

echo "== flagship: the WAL retry decides write/errno =="
"$work/lfi" sweep -avail minidb-nr -j 4 >"$work/nr.txt" 2>/dev/null
if ! grep -q 'libc.so.write -> -1.*avail=recovered' "$work/ref.txt"; then
	echo "availcheck: FAIL: retrying server did not recover from one-shot write errno" >&2
	exit 1
fi
if ! grep -q 'libc.so.write -> -1.*avail=degraded' "$work/nr.txt"; then
	echo "availcheck: FAIL: non-retrying server did not degrade under one-shot write errno" >&2
	exit 1
fi
if ! grep -q 'exhaust=disk:after=0.*avail=degraded' "$work/ref.txt" ||
	! grep -q 'delay=200000000.*avail=wedged' "$work/ref.txt"; then
	echo "availcheck: FAIL: persistent exhaustion/stall did not defeat the retry" >&2
	exit 1
fi
echo "ok: flagship comparison"

echo "availcheck: OK"
