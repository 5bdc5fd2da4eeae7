#!/usr/bin/env bash
# Same-host A/B of one perfbench workload: a base commit against the
# working tree, in alternating pairs of untraced 30 s runs.
#
#   scripts/perfbench_ab.sh BASE WORKLOAD PAIRS METRIC [OUT [SEED0]]
#   make perfbench-ab AB_BASE=HEAD~1 AB_WORKLOAD=serve-zipf AB_PAIRS=10 AB_METRIC=req_p50_ms AB_SEED0=101
#
# BASE is exported with git archive into a temporary directory. Pair i
# runs both trees at seed SEED0+i (SEED0 defaults to 101; a claim needs
# seeds that were not used while the change was developed), the base
# first on even i and the working tree first on odd i; each tree builds
# under its own CARGO_TARGET_DIR in .bench_ab/. Every run's last JSON
# line is appended to OUT (default .bench_ab/WORKLOAD.json, also when OUT
# is empty; one object per line) tagged with side ("base" or "change"),
# seed and result digest. PAIRS=0 runs nothing and summarizes an
# existing OUT.
#
# The summary gives, for each end-to-end metric in BENCHMARK.json, both
# medians and quartiles, the change in median against the metric's bound,
# and the pairs the change won. The claim verdict for METRIC needs the
# change better in at least 90% of the pairs (9 of 10) and its median
# better by more than the base's interquartile range. Exit status: 0 when
# the claim holds, 3 when it does not, 1 on any other error.
set -euo pipefail

if [ $# -lt 4 ] || [ $# -gt 6 ]; then
    echo "usage: $0 BASE WORKLOAD PAIRS METRIC [OUT [SEED0]]" >&2
    exit 1
fi
BASE=$1 WORKLOAD=$2 PAIRS=$3 METRIC=$4
OUT=${5:-.bench_ab/$WORKLOAD.json}
SEED0=${6:-101}
command -v jq >/dev/null || { echo "perfbench-ab: needs jq" >&2; exit 1; }
ROOT=$(git rev-parse --show-toplevel)
cd "$ROOT"
mkdir -p .bench_ab "$(dirname "$OUT")"

if [ "$PAIRS" -gt 0 ]; then
    SRC=$(mktemp -d)
    trap 'rm -rf "$SRC"' EXIT
    git archive "$BASE" | tar -x -C "$SRC"
    : >"$OUT"
    # run SIDE TREE SEED runs one side once and appends its tagged record.
    run() {
        local side=$1 tree=$2 seed=$3 log
        log=$(mktemp)
        echo "perfbench-ab: $WORKLOAD seed $seed, $side" >&2
        (cd "$tree" && CARGO_TARGET_DIR="$ROOT/.bench_ab/$side" \
            bash perfbench/run.sh --workload "$WORKLOAD" --seed "$seed" --seconds 30 --trace 0) >"$log"
        tail -n 1 "$log" | jq -c --arg side "$side" --argjson seed "$seed" \
            --arg digest "$(awk '$1 == "digest" { print $3 }' "$log")" \
            '{side: $side, seed: $seed, digest: $digest} + .' >>"$OUT"
        rm -f "$log"
    }
    for ((i = 0; i < PAIRS; i++)); do
        seed=$((SEED0 + i))
        if ((i % 2 == 0)); then
            run base "$SRC" "$seed"
            run change "$ROOT" "$seed"
        else
            run change "$ROOT" "$seed"
            run base "$SRC" "$seed"
        fi
    done
fi

echo "perfbench-ab: $WORKLOAD, base $BASE, records in $OUT"
summary=$(jq -rs --arg metric "$METRIC" --slurpfile bench BENCHMARK.json '
  def quant(p): sort as $s | ($s | length) as $n | (($n - 1) * p) as $h | ($h | floor) as $l
    | if $l + 1 < $n then $s[$l] + ($h - $l) * ($s[$l + 1] - $s[$l]) else $s[$l] end;
  def fmt: . * 10000 | round / 10000 | tostring;
  def row: [17, 26, 26, 9, 7, 7] as $w | [range(length) as $i | .[$i] + " " * ([($w[$i] // 0) - (.[$i] | length), 1] | max)] | join("");
  def better($d; $a; $b): if $d == "lower" then $a < $b else $a > $b end;
  (map(select(.side == "base")) | INDEX(.seed | tostring)) as $base
  | (map(select(.side == "change")) | INDEX(.seed | tostring)) as $chg
  | [$base | keys[] | select($chg[.])] as $seeds
  | ($seeds | length) as $pairs
  | [$bench[0].end_to_end[]
     | . as $m
     | [$seeds[] | $base[.].metrics[$m.name].value] as $b
     | [$seeds[] | $chg[.].metrics[$m.name].value] as $c
     | ($b | quant(0.5)) as $bm | ($c | quant(0.5)) as $cm
     | ($b | quant(0.75) - quant(0.25)) as $iqr
     | {name: $m.name, better: $m.better, bound: $m.bound, bm: $bm, cm: $cm, iqr: $iqr,
        b25: ($b | quant(0.25)), b75: ($b | quant(0.75)),
        c25: ($c | quant(0.25)), c75: ($c | quant(0.75)),
        rel: (if $bm == 0 then 0 else ($cm - $bm) / $bm end),
        wins: ([range($pairs) | select(better($m.better; $c[.]; $b[.]))] | length),
        gain: (if $m.better == "lower" then $bm - $cm else $cm - $bm end),
        spread: (if $bm == 0 then 0 else $iqr / ($bm | fabs) end),
        sweep: ([$c[] as $x | $b[] as $y | better($m.better; $x; $y)] | all)}
     | .status = (if .spread > .bound and (.sweep | not) then "unresolved (base IQR \(.spread * 1000 | round / 10)% of median)"
                  elif .gain < 0 and (.rel | fabs) > .bound then "OUT OF BOUND"
                  else "ok" end)] as $rows
  | ($rows | map(select(.name == $metric)) | first) as $claim
  | "pairs \($pairs); digests equal in \([$seeds[] | select($base[.].digest == $chg[.].digest)] | length); failed base \([$seeds[] | $base[.].failed] | add) change \([$seeds[] | $chg[.].failed] | add)",
    (["metric", "base p25/p50/p75", "change p25/p50/p75", "change", "bound", "wins", "status"] | row),
    ($rows[] | ["\(.name)", "\(.b25 | fmt)/\(.bm | fmt)/\(.b75 | fmt)", "\(.c25 | fmt)/\(.cm | fmt)/\(.c75 | fmt)",
                "\(.rel * 1000 | round / 10)%", "\(.bound * 100)%", "\(.wins)/\($pairs)", .status] | row),
    if $claim == null then "claim: no end-to-end metric named \($metric)"
    else "claim \($metric): better in \($claim.wins) of \($pairs) pairs (need \(($pairs * 0.9) | ceil)), median better by \($claim.gain | fmt) against base IQR \($claim.iqr | fmt): \(if $pairs > 0 and $claim.wins >= (($pairs * 0.9) | ceil) and $claim.gain > $claim.iqr then "MET" else "NOT MET" end)"
    end
' "$OUT")
echo "$summary"
[[ $summary == *": MET" ]] || exit 3
