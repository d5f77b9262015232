#!/bin/sh
# CI / pre-commit gate, split into named stages.
#
# Usage:
#   bin/check.sh                 run every stage, in order
#   bin/check.sh STAGE...        run the named stages only (CI runs them as
#                                separate steps to get per-stage timing and
#                                log folding)
#   bin/check.sh --list          print the stage names and exit
#
# Stages:
#   build       full build (libs, executables, docs) + test suite
#   fmt         opam metadata lint  (skipped when opam is missing) and
#               format check        (skipped when ocamlformat is missing)
#   lint        shellcheck          (skipped when shellcheck is missing)
#   metrics     trace exporter and metrics plane: a traced run writes its
#               JSONL and Chrome trace files and a snapshot that renders,
#               and outside the timing.* namespace a CLI snapshot is
#               byte-identical at -j 1 and -j 4
#   tables      bench tables, strict, in one run: every declared paper bound
#               must hold, every table matches the committed goldens in
#               bench/goldens, the spanner and certificate are re-verified
#               by the local checkers, and the artifacts the run writes
#               load in the bound report
#   parallel    rerunning the tables over several domains (--jobs), strict,
#               must reproduce the sequential artifacts byte-for-byte
#   stream      an emitted update stream replays through the repair engine
#               recertified (default, local and probe recertification),
#               a generated G(n,p) stream replays under local
#               recertification with a Thurimella certificate, and so
#               does a weighted one (weights in [1, 8]) without one,
#               and rerunning D1 from the same seed reproduces its artifact
#               byte-for-byte
#   xfail       negative control: a deliberately violated bound must fail
#   sharded     the large-n mp-smoke: flood and BFS at n = 1e5, ref vs
#               fast -j 1 vs fast -j 4, must be byte-identical
#   verify      the CLI's full corruption matrix: every valid artifact is
#               accepted and every corruption rejected
#   oracle      serving layer: compile -> query round-trips end-to-end with
#               local verification, the result file is byte-identical at
#               -j 1 and -j 4, a corrupted artifact and a header whose
#               counts overflow the size computation are rejected with a
#               one-line diagnostic and exit 1, the stripped metrics of
#               the -j 1 and -j 4 query runs are byte-identical, and Q1
#               holds its bounds and matches its golden
#   efficiency  perf efficiency gate against the committed BENCH_congest.json
#               (includes the floors) plus its negative control
#   perf        perf regression gate against BENCH_congest.json
#   benchtest   the perfbench self-tests (dune build @perfbench/benchtest)
#
# Every run ends with a per-stage wall-clock summary table.
#
# Identity of the engines and job counts on a transcript or a snapshot
# (ref vs fast -j 1 vs fast -j 4) is checked once, by the test suite in
# the build stage: test_verify for the corruption matrix, test_metrics
# for the BFS and distributed Baswana-Sen snapshots.
set -eu
cd "$(dirname "$0")/.." || exit 1

STAGES="build fmt lint metrics tables parallel stream xfail sharded verify oracle efficiency perf benchtest"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Sequential quick-table artifacts are the reference several stages diff
# against; build them at most once per invocation.  The run that writes
# them is also the tables gate: strict, diffed against the committed
# goldens, with its spanner and certificate re-verified by the O(k)-round
# local checkers.
ensure_ref_artifacts() {
  if [ ! -d "$tmp/artifacts" ]; then
    dune exec bench/main.exe -- --quick --all --strict --verify local \
      --against bench/goldens --artifacts "$tmp/artifacts" >/dev/null
  fi
}

stage_build() {
  dune build @all
  dune runtest
}

stage_fmt() {
  if command -v opam >/dev/null 2>&1; then
    opam lint ultraspan.opam
  else
    echo "   (skipped opam lint: opam not installed)"
  fi
  if command -v ocamlformat >/dev/null 2>&1; then
    dune build @fmt
  else
    echo "   (skipped: ocamlformat not installed)"
  fi
}

stage_lint() {
  if command -v shellcheck >/dev/null 2>&1; then
    shellcheck bin/check.sh
  else
    echo "   (skipped: shellcheck not installed)"
  fi
}

stage_metrics() {
  dune exec bin/ultraspan_cli.exe -- trace --program bfs --family gnp -n 64 \
    --degree 6 --seed 5 -o "$tmp/trace" --metrics "$tmp/m-trace.json" \
    >/dev/null
  test -s "$tmp/trace.jsonl"
  test -s "$tmp/trace.trace.json"
  test -s "$tmp/m-trace.json"
  dune exec bin/ultraspan_cli.exe -- metrics "$tmp/m-trace.json" >/dev/null
  for j in 1 4; do
    dune exec bin/ultraspan_cli.exe -- spanner --algo bs-distributed \
      --family gnp -n 200 --degree 8 --seed 3 -j "$j" \
      --metrics "$tmp/m-j$j.json" >/dev/null
    dune exec bin/ultraspan_cli.exe -- metrics "$tmp/m-j$j.json" \
      --expose --strip-timing >"$tmp/m-j$j.prom"
  done
  cmp "$tmp/m-j1.prom" "$tmp/m-j4.prom"
}

stage_tables() {
  ensure_ref_artifacts
  dune exec bin/ultraspan_cli.exe -- report "$tmp/artifacts" >/dev/null
}

stage_parallel() {
  # The sequential run is the reference: a multi-domain rerun must produce
  # byte-identical artifacts (the pool's fixed chunk schedule and
  # index-ordered reduction make this exact, not approximate).
  ensure_ref_artifacts
  par_jobs=$(nproc 2>/dev/null || echo 4)
  [ "$par_jobs" -lt 4 ] && par_jobs=4
  dune exec bench/main.exe -- --quick --all --strict --jobs "$par_jobs" \
    --against "$tmp/artifacts" >/dev/null
}

stage_stream() {
  dune exec bin/ultraspan_cli.exe -- stream --emit --family torus -n 64 \
    --batches 4 --ops 6 --seed 9 -o "$tmp/stream.txt" >/dev/null
  test -s "$tmp/stream.txt"
  dune exec bin/ultraspan_cli.exe -- stream --replay "$tmp/stream.txt" \
    --family torus -n 64 --seed 9 >/dev/null
  # replaying with the local-checker recertification must also pass
  dune exec bin/ultraspan_cli.exe -- stream --replay "$tmp/stream.txt" \
    --family torus -n 64 --seed 9 --verify local >/dev/null
  dune exec bin/ultraspan_cli.exe -- stream --replay "$tmp/stream.txt" \
    --family torus -n 64 --seed 9 --verify probe >/dev/null
  # the torus spanner keeps every initial edge; on this G(n,p) it drops
  # some, so detour walks are routed, and the Thurimella certificate runs
  # the forest checker too
  dune exec bin/ultraspan_cli.exe -- stream --replay - --family gnp -n 128 \
    --degree 16 --seed 9 --verify local --cert thurimella >/dev/null
  # weights in [1, 8]: the repair engine's dirty balls take the weighted
  # (per-source Dijkstra) branch of Dijkstra.balls
  dune exec bin/ultraspan_cli.exe -- stream --replay - --family gnp -n 128 \
    --degree 16 --max-weight 8 --seed 9 --verify local >/dev/null
  ensure_ref_artifacts
  dune exec bench/main.exe -- --quick --table d1 \
    --artifacts "$tmp/d1-replay" >/dev/null
  cmp "$tmp/artifacts/d1.json" "$tmp/d1-replay/d1.json"
}

stage_xfail() {
  if dune exec bench/main.exe -- --quick --table xfail --strict \
      --artifacts "$tmp/xfail" >/dev/null 2>&1; then
    echo "ERROR: xfail table passed the strict gate" >&2
    exit 1
  fi
}

stage_sharded() {
  dune exec bench/perf.exe -- --mp-smoke 100000
}

stage_verify() {
  dune exec bin/ultraspan_cli.exe -- verify >/dev/null
}

stage_oracle() {
  # compile -> query round trip, with the spanner recertified on the
  # original graph and sampled answers spot-checked against exact distances
  dune exec bin/ultraspan_cli.exe -- compile --algo bs-derand --family gnp \
    -n 1000 --degree 8 --seed 3 -k 3 -o "$tmp/oracle.bin" >/dev/null
  test -s "$tmp/oracle.bin"
  dune exec bin/ultraspan_cli.exe -- query "$tmp/oracle.bin" --random 2000 \
    --seed 3 --family gnp -n 1000 --degree 8 --verify local \
    --emit-queries "$tmp/oracle-queries.txt" -o "$tmp/oracle-j1.txt" \
    --metrics "$tmp/oracle-m-j1.json" >/dev/null
  # the emitted batch replayed over the pool must reproduce the result
  # file and the stripped metrics byte-for-byte
  dune exec bin/ultraspan_cli.exe -- query "$tmp/oracle.bin" \
    --queries "$tmp/oracle-queries.txt" -j 4 -o "$tmp/oracle-j4.txt" \
    --metrics "$tmp/oracle-m-j4.json" >/dev/null
  cmp "$tmp/oracle-j1.txt" "$tmp/oracle-j4.txt"
  for j in j1 j4; do
    dune exec bin/ultraspan_cli.exe -- metrics "$tmp/oracle-m-$j.json" \
      --expose --strip-timing >"$tmp/oracle-m-$j.prom"
  done
  grep -q "^oracle\.queries_total" "$tmp/oracle-m-j1.prom"
  cmp "$tmp/oracle-m-j1.prom" "$tmp/oracle-m-j4.prom"
  # A truncated artifact, and 64-byte headers (versions 1 and 2) that
  # promise 2^58 edges so that the payload size wraps to 0, with the FNV
  # offset basis as the checksum of that empty payload: each must be
  # rejected with exit 1 and a one-line diagnostic, not a crash.
  head -c 100 "$tmp/oracle.bin" >"$tmp/oracle-corrupt.bin"
  z='\000\000\000\000\000\000\000'
  m58="$z\004"
  for v in 1 2; do
    # shellcheck disable=SC2059
    printf "USPANORC\00$v$z\000$z$m58$m58\001$z\000$z\045\043\042\204\344\234\362\313" \
      >"$tmp/oracle-hostile-$v.bin"
  done
  for bad in oracle-corrupt oracle-hostile-1 oracle-hostile-2; do
    rc=0
    dune exec bin/ultraspan_cli.exe -- query "$tmp/$bad.bin" --random 10 \
      >/dev/null 2>"$tmp/oracle-err.txt" || rc=$?
    if [ "$rc" -ne 1 ] || [ "$(wc -l <"$tmp/oracle-err.txt")" -ne 1 ]; then
      echo "ERROR: $bad.bin: exit $rc, want 1 and a one-line diagnostic" >&2
      exit 1
    fi
    grep -q "not an ultraspan-oracle/2 artifact" "$tmp/oracle-err.txt"
  done
  # Q1 (serving throughput + stretch contract): every bound must hold and
  # the table must match its committed golden
  dune exec bench/main.exe -- --quick --table q1 --strict \
    --against bench/goldens >/dev/null
}

stage_efficiency() {
  dune exec bench/perf.exe -- --gate-efficiency BENCH_congest.json
  if dune exec bench/perf.exe -- --gate-efficiency BENCH_congest.json \
      --min-pool-utilization 1.5 >/dev/null 2>&1; then
    echo "ERROR: efficiency gate passed an impossible utilization floor" >&2
    exit 1
  fi
}

stage_perf() {
  dune exec bench/perf.exe -- --quick --against BENCH_congest.json
}

stage_benchtest() {
  dune build @perfbench/benchtest
}

# ---------------------------------------------------------------------

case "${1:-}" in
  --list)
    echo "$STAGES"
    exit 0
    ;;
  --help | -h)
    # The header comment: every line from the second up to the first
    # that is not a comment.
    sed -n '2,$ { /^#/!q; s/^# \{0,1\}//; p; }' "$0"
    exit 0
    ;;
esac

if [ "$#" -gt 0 ]; then
  sel="$*"
  for s in $sel; do
    case " $STAGES " in
      *" $s "*) ;;
      *)
        echo "check.sh: unknown stage '$s' (try --list)" >&2
        exit 2
        ;;
    esac
  done
else
  sel=$STAGES
fi

times_file="$tmp/stage-times"
: >"$times_file"
for s in $sel; do
  echo "== $s =="
  t0=$(date +%s)
  "stage_$s"
  t1=$(date +%s)
  printf '%s %s\n' "$s" "$((t1 - t0))" >>"$times_file"
done

echo
echo "stage timing summary"
echo "--------------------"
total=0
while read -r name secs; do
  printf '%-12s %5ss\n' "$name" "$secs"
  total=$((total + secs))
done <"$times_file"
echo "--------------------"
printf '%-12s %5ss\n' "total" "$total"
echo "check: OK"
