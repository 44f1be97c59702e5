#!/usr/bin/env bash
# End-to-end smoke of the motto CLI: generates a stream and workload, then
# exercises explain/run/compare including the observability flags
# (--stats[=json], --trace, --metrics-out) and the online-churn path
# (--churn), validating exit codes — malformed or bare flag values and
# undeclared flags must be usage errors naming the flag — and that the
# emitted trace/metrics/report JSON is well-formed.
set -u

MOTTO="${1:?usage: cli_smoke_test.sh <path-to-motto-binary>}"
MOTTO="$(cd "$(dirname "${MOTTO}")" && pwd)/$(basename "${MOTTO}")"
workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
cd "${workdir}"

fail() { echo "FAIL: $*" >&2; exit 1; }

# Bad invocations must fail with the documented usage exit code.
"${MOTTO}" >/dev/null 2>&1
[ $? -eq 2 ] || fail "no-arg invocation should exit 2"
"${MOTTO}" frobnicate >/dev/null 2>&1
[ $? -eq 2 ] || fail "unknown command should exit 2"
"${MOTTO}" run --workload=missing.ccl --stream=missing.csv >/dev/null 2>&1 \
  && fail "missing inputs should fail"

"${MOTTO}" gen-stream --events=5000 --seed=3 --out=s.csv >/dev/null \
  || fail "gen-stream"
"${MOTTO}" gen-workload --queries=8 --seed=5 --out=w.ccl >/dev/null \
  || fail "gen-workload"
"${MOTTO}" explain --workload=w.ccl --stream=s.csv > explain.out \
  || fail "explain"
grep -q "sharing graph" explain.out || fail "explain output missing plan"
grep -q "rewriter:" explain.out || fail "explain optimizer trace missing"

# At the Fig 13a size (100 stock queries, r = 100%) the exact DSMT search
# proves its plan optimal: the plan is exact and the bnb line has no gap.
"${MOTTO}" gen-stream --events=20000 --seed=3 --out=s20k.csv >/dev/null \
  || fail "gen-stream 20k"
"${MOTTO}" gen-workload --queries=100 --seed=7 --out=w100.ccl >/dev/null \
  || fail "gen-workload 100"
"${MOTTO}" explain --workload=w100.ccl --stream=s20k.csv > explain100.out \
  || fail "explain 100 queries"
grep -q -- "-- plan (exact" explain100.out \
  || fail "Fig 13a-size plan is not exact"
grep "^bnb:" explain100.out | grep -q "gap 0%$" \
  || fail "Fig 13a-size bnb line has a gap"
"${MOTTO}" explain --workload=w100.ccl --stream=s20k.csv --json=e100.json \
  >/dev/null || fail "explain 100 queries --json"
python3 - <<'EOF' || fail "Fig 13a-size solver JSON lacks its bound or gap"
import json
d = json.load(open("e100.json"))
bnb = d["optimizer"]["solver"]["bnb"]
assert d["exact"] and bnb["gap"] == 0, bnb
assert 0 < bnb["lower_bound"] <= d["planned_cost"] + 1e-9, bnb
EOF

# Plan inspector exports: annotated DOT + JSON with sharing provenance.
# --solver selects the DSMT path; anything but bnb|sa is an error.
"${MOTTO}" explain --workload=w.ccl --stream=s.csv --solver=bogus \
  >/dev/null 2>&1 && fail "bogus --solver should fail"
"${MOTTO}" explain --workload=w.ccl --stream=s.csv --solver=sa \
  > explain_sa.out || fail "explain --solver=sa"
grep -q "sa: seed" explain_sa.out || fail "SA telemetry summary missing"
"${MOTTO}" explain --workload=w.ccl --stream=s.csv --json=e.json --dot=e.dot \
  >/dev/null || fail "explain --json --dot"
python3 - <<'EOF' || fail "explain JSON/DOT invalid"
import json
d = json.load(open("e.json"))
nodes = d["nodes"]
assert nodes, "no plan nodes"
for n in nodes:
    for key in ("id", "label", "kind", "predicted_cpu_units", "inputs",
                "sharing_node", "queries", "edge", "family", "shared"):
        assert key in n, (key, n)
for n in (n for n in nodes if n["shared"]):
    # Sharing provenance on every shared node: graph origin + dependents.
    assert n["sharing_node"] >= 0, n
    assert n["sharing_key"], n
    assert len(n["queries"]) >= 2, n
assert d["sinks"], "no sinks"
assert d["optimizer"]["rewriter"]["candidates"], "no candidate trace"
assert d["optimizer"]["solver"]["selected"], d["optimizer"]["solver"]
# The DOT export mirrors the JSON plan's shape exactly.
dot = open("e.dot").read().splitlines()
assert dot[0].startswith("digraph"), dot[0]
node_lines = [l for l in dot if "[shape=" in l]
edge_lines = [l for l in dot if " -> " in l]
assert len(node_lines) == len(nodes), (len(node_lines), len(nodes))
assert len(edge_lines) == sum(len(n["inputs"]) for n in nodes)
assert any("fillcolor" in l for l in node_lines), "shared nodes not filled"
# Selectivity-order annotations (DESIGN.md §13): every node reports its
# planner-chosen eval order and predicted partial-count reduction; eligible
# pattern nodes (SEQ/CONJ, 2+ operands) carry a non-empty order, and the
# lazy chain never predicts more partials than arrival order.
for n in nodes:
    for key in ("eval_order", "order_arrival_partials", "order_lazy_partials",
                "order_reduction", "lazy_beneficial"):
        assert key in n, (key, n)
ordered = [n for n in nodes if n["eval_order"]]
assert ordered, "no node got an eval order"
for n in ordered:
    assert sorted(n["eval_order"]) == list(range(len(n["eval_order"]))), n
    assert n["order_reduction"] >= 1.0 - 1e-9, n
EOF

# Single-threaded run with the full observability surface.
"${MOTTO}" run --workload=w.ccl --stream=s.csv --stats \
  --trace=trace.json --metrics-out=metrics.json > run.out || fail "run"
grep -q "events/s" run.out || fail "run banner missing"
grep -q "pred%" run.out || fail "--stats table missing"

python3 - <<'EOF' || fail "trace/metrics JSON invalid"
import json
t = json.load(open("trace.json"))
events = t["traceEvents"]
assert isinstance(events, list) and events, "no trace events"
for e in events:
    assert {"name", "ph", "pid", "tid", "ts"} <= set(e), e
phases = {e["ph"] for e in events}
assert "X" in phases, phases   # node spans
assert "M" in phases, phases   # thread names
assert t["otherData"]["dropped_events"] == 0
m = json.load(open("metrics.json"))
assert m["counters"]["run.raw_events"] == 5000, m["counters"]
assert any(k.startswith("node.") for k in m["counters"]), m["counters"]
assert m["histograms"], "matcher probe histograms missing"
EOF

# --stats=json must report predicted vs measured CPU for every plan node.
"${MOTTO}" run --workload=w.ccl --stream=s.csv --stats=json > stats.out \
  || fail "run --stats=json"
python3 - <<'EOF' || fail "--stats=json report invalid"
import json, re
lines = open("stats.out").read().splitlines()
n = int(re.search(r"plan (\d+) nodes", lines[0]).group(1))
rep = json.loads(next(l for l in lines if l.startswith("{")))
assert len(rep["nodes"]) == n, (len(rep["nodes"]), n)
for node in rep["nodes"]:
    for key in ("predicted_cpu_units", "predicted_share",
                "measured_busy_seconds", "measured_share", "label"):
        assert key in node, (key, node)
EOF

# Calibration joins predicted per-node costs with measured busy time into
# per-rewrite-family mis-estimate rows.
"${MOTTO}" run --workload=w.ccl --stream=s.csv --calibrate > cal.out \
  || fail "run --calibrate"
grep -q "calibration" cal.out || fail "calibration table missing"
grep -q "miss" cal.out || fail "miss-ratio column missing"
"${MOTTO}" run --workload=w.ccl --stream=s.csv --calibrate=json \
  > cal_json.out || fail "run --calibrate=json"
python3 - <<'EOF' || fail "calibration JSON invalid"
import json
lines = open("cal_json.out").read().splitlines()
cal = json.loads(next(l for l in lines if l.startswith("{")))
assert cal["rows"], "no calibration rows"
total = 0.0
for row in cal["rows"]:
    for key in ("family", "nodes", "predicted_share", "measured_share",
                "miss_ratio"):
        assert key in row, (key, row)
    total += row["predicted_share"]
assert abs(total - 1.0) < 1e-6, total
EOF

# Multi-threaded run produces a trace too (scheduler instants + batch spans).
"${MOTTO}" run --workload=w.ccl --stream=s.csv --threads=2 \
  --trace=ptrace.json > /dev/null || fail "run --threads=2"
python3 - <<'EOF' || fail "parallel trace invalid"
import json
t = json.load(open("ptrace.json"))
names = {e["name"] for e in t["traceEvents"]}
assert "pool_epoch" in names, names
assert "batch" in names, names
EOF

# Executor sizing knobs reject non-positive values with the error exit code.
"${MOTTO}" run --workload=w.ccl --stream=s.csv --shards=0 >/dev/null 2>&1
[ $? -eq 1 ] || fail "--shards=0 should exit 1"
"${MOTTO}" run --workload=w.ccl --stream=s.csv --threads=-1 >/dev/null 2>&1
[ $? -eq 1 ] || fail "--threads=-1 should exit 1"

# Two queries under one name would merge their matches into one sink: the
# workload is refused, naming the query, in every mode.
printf 'q1: SELECT * FROM s MATCHING [10 sec : SEQ(A, B)]\n%s\n' \
  'q1: SELECT * FROM s MATCHING [10 sec : SEQ(A, C)]' > dup.ccl
for mode in motto na; do
  "${MOTTO}" run --workload=dup.ccl --stream=s.csv --mode="${mode}" \
    >/dev/null 2>err.txt
  [ $? -eq 1 ] || fail "duplicate query name should exit 1 (--mode=${mode})"
  grep -q "duplicate query name 'q1'" err.txt \
    || fail "duplicate query name error should name q1 (--mode=${mode})"
done

# Sharded run: banner line, per-shard metrics, per-shard trace rows.
"${MOTTO}" run --workload=w.ccl --stream=s.csv --shards=4 \
  --trace=strace.json --metrics-out=smetrics.json > shard_run.out \
  || fail "run --shards=4"
grep -q "sharded: 4 shards" shard_run.out || fail "sharded banner missing"
python3 - <<'EOF' || fail "sharded metrics/trace invalid"
import json
m = json.load(open("smetrics.json"))
gauges = m["gauges"]
assert gauges["shard.count"]["value"] == 4, gauges
assert "shard.skew" in gauges, gauges
assert gauges["shard.groups"]["value"] >= 1, gauges
counters = m["counters"]
shard_rows = [k for k in counters if k.startswith("shard.")]
assert any(k.endswith(".owned_events") for k in shard_rows), counters
assert any(k.endswith(".matches") for k in shard_rows), counters
# Each group's slices partition the stream (unsliced shards own it whole),
# so owned events total the raw stream once per replica group.
owned = sum(v for k, v in counters.items()
            if k.startswith("shard.") and k.endswith(".owned_events"))
expect = counters["run.raw_events"] * int(gauges["shard.groups"]["value"])
assert owned == expect, (owned, expect)
t = json.load(open("strace.json"))
names = {e["name"] for e in t["traceEvents"]}
assert "shard" in names, names
EOF

# Sharded and single-threaded runs agree on every query's match count.
"${MOTTO}" run --workload=w.ccl --stream=s.csv > single_run.out \
  || fail "run single for shard diff"
grep "matches" shard_run.out > shard_matches.out
grep "matches" single_run.out > single_matches.out
diff -q shard_matches.out single_matches.out >/dev/null \
  || fail "sharded match counts diverge from single-threaded"

# Selectivity-ordered lazy mode: identical per-query match counts, and an
# unknown mode name is a usage error.
"${MOTTO}" run --workload=w.ccl --stream=s.csv --eval-order=selectivity \
  > lazy_run.out || fail "run --eval-order=selectivity"
grep "matches" lazy_run.out > lazy_matches.out
diff -q lazy_matches.out single_matches.out >/dev/null \
  || fail "lazy match counts diverge from arrival order"
"${MOTTO}" run --workload=w.ccl --stream=s.csv --eval-order=bogus \
  >/dev/null 2>&1
[ $? -eq 1 ] || fail "--eval-order=bogus should exit 1"
# Calibration multipliers feed the order planner; malformed specs are usage
# errors (run/explain/compare all take the flag).
"${MOTTO}" run --workload=w.ccl --stream=s.csv --eval-order=selectivity \
  --calibration=DST=0.73,MST=1.03 >/dev/null \
  || fail "run --calibration"
"${MOTTO}" run --workload=w.ccl --stream=s.csv --calibration=DST=zero \
  >/dev/null 2>&1
[ $? -eq 1 ] || fail "--calibration=DST=zero should exit 1"
"${MOTTO}" run --workload=w.ccl --stream=s.csv --calibration=DST=1e400 \
  >/dev/null 2>&1
[ $? -eq 1 ] || fail "--calibration=DST=1e400 (infinite) should exit 1"
"${MOTTO}" explain --workload=w.ccl --stream=s.csv \
  --calibration=unshared=1.2 >/dev/null || fail "explain --calibration"

# Malformed numeric flag values and bare value-flags are usage errors whose
# message names the offending flag (they used to be silently misparsed).
"${MOTTO}" gen-stream --events=10 --seed=12x --out=bad.csv >/dev/null 2>err.txt
[ $? -eq 1 ] || fail "--seed=12x should exit 1"
grep -q -- "bad --seed='12x'" err.txt || fail "--seed error should name the flag"
"${MOTTO}" gen-stream --events=10 --scenario=bogus --out=bad.csv \
  >/dev/null 2>err.txt
[ $? -eq 1 ] || fail "--scenario=bogus should exit 1"
grep -q "unknown scenario 'bogus'" err.txt \
  || fail "--scenario error should name the value"
"${MOTTO}" run --workload=w.ccl --stream=s.csv --shards >/dev/null 2>err.txt
[ $? -eq 1 ] || fail "bare --shards should exit 1"
grep -q -- "--shards needs a value" err.txt \
  || fail "bare value-flag error should name the flag"
"${MOTTO}" run --workload=w.ccl --stream=s.csv --mode >/dev/null 2>err.txt
[ $? -eq 1 ] || fail "bare --mode should exit 1"
grep -q -- "--mode needs a value" err.txt || fail "bare --mode should be named"

# Every command declares its flags in one table: an undeclared flag (here a
# typo) exits 1, naming the flag and the nearest declared one.
unknown_flag() {  # <flag> <nearest> <command and flags...>
  local flag="$1" nearest="$2"
  shift 2
  "${MOTTO}" "$@" "${flag}" </dev/null >/dev/null 2>err.txt
  [ $? -eq 1 ] || fail "$* ${flag} should exit 1"
  grep -q -- "unknown flag ${flag%%=*} (did you mean ${nearest}?)" err.txt \
    || fail "$* ${flag} should name the flag and ${nearest}"
}
unknown_flag --shard=4 --shards run --workload=w.ccl --stream=s.csv
unknown_flag --solvr=sa --solver explain --workload=w.ccl --stream=s.csv
unknown_flag --run=1 --runs compare --workload=w.ccl --stream=s.csv
unknown_flag --evnts=9 --events gen-stream --out=bad.csv
unknown_flag --querys=3 --queries gen-workload --out=bad.ccl
unknown_flag --iter=2 --iters verify
unknown_flag --chekpoint-dir=x --checkpoint-dir serve --workload=w.ccl
unknown_flag --prot=1 --port top
unknown_flag --skp=1 --skip wire-encode --stream=s.csv --out=bad.bin
unknown_flag --work-dri=x --work-dir verify --recovery

# --help prints the command's table and exits 0.
"${MOTTO}" run --help > help.out || fail "run --help should exit 0"
grep -q -- "--shards=N" help.out || fail "run --help should list --shards"

# Depth knobs read from the environment are checked like the flag they
# default.
MOTTO_RECOVERY_FUZZ_ITERS=abc "${MOTTO}" verify --recovery --seed=1 \
  >/dev/null 2>err.txt
[ $? -eq 1 ] || fail "MOTTO_RECOVERY_FUZZ_ITERS=abc should exit 1"
grep -q "bad MOTTO_RECOVERY_FUZZ_ITERS='abc'" err.txt \
  || fail "bad MOTTO_RECOVERY_FUZZ_ITERS should be named"

# Online churn (DESIGN.md §14): a script of timed add/remove commands
# replayed with incremental re-plans and live state migration.
"${MOTTO}" run --workload=w.ccl --stream=s.csv --churn=missing.script \
  >/dev/null 2>err.txt
[ $? -eq 1 ] || fail "missing churn script should exit 1"
grep -q "cannot read churn script" err.txt || fail "churn script error missing"
cat > churn.script <<'EOF'
# mid-stream workload churn
800000000 add spike: SELECT * FROM stream MATCHING [10000000 us : SEQ(AMZN, GOOG, FB)]
1600000000 remove q1
EOF
"${MOTTO}" run --workload=w.ccl --stream=s.csv --churn=churn.script \
  --metrics-out=churn_metrics.json > churn.out || fail "run --churn"
grep -q "plan swaps" churn.out || fail "churn banner missing"
grep -q "re-plan add 'spike'" churn.out || fail "churn add re-plan missing"
grep -q "re-plan remove 'q1'" churn.out || fail "churn remove re-plan missing"
grep -q "migration:" churn.out || fail "churn migration counters missing"
grep -q "live \[800000000, end)" churn.out || fail "added live window missing"
grep -q "live \[start, 1600000000)" churn.out \
  || fail "removed live window missing"
"${MOTTO}" run --workload=w.ccl --stream=s.csv --churn=churn.script \
  --eval-order=selectivity >/dev/null || fail "run --churn --eval-order"
python3 - <<'EOF' || fail "churn metrics invalid"
import json
m = json.load(open("churn_metrics.json"))
c = m["counters"]
assert c["churn.swaps"] == 2, c
assert c["churn.reoptimizations"] == 2, c
assert c["churn.nodes_kept"] >= 1, c
EOF
# --churn composes only with the single-threaded motto engine.
"${MOTTO}" run --workload=w.ccl --stream=s.csv --churn=churn.script \
  --shards=2 >/dev/null 2>&1
[ $? -eq 1 ] || fail "--churn with --shards should exit 1"
"${MOTTO}" run --workload=w.ccl --stream=s.csv --churn=churn.script \
  --mode=na >/dev/null 2>&1
[ $? -eq 1 ] || fail "--churn with --mode=na should exit 1"

"${MOTTO}" compare --workload=w.ccl --stream=s.csv --runs=1 --reports \
  > compare.out || fail "compare --reports"
grep -q "x NA" compare.out || fail "compare table missing"
grep -q -- "-- MOTTO report --" compare.out || fail "mode report missing"

# compare accepts the engine-selection knobs (sharded + pipelined) and the
# lazy eval mode.
"${MOTTO}" compare --workload=w.ccl --stream=s.csv --runs=1 \
  --eval-order=selectivity >/dev/null || fail "compare --eval-order"
"${MOTTO}" compare --workload=w.ccl --stream=s.csv --runs=1 --shards=2 \
  >/dev/null || fail "compare --shards=2"
"${MOTTO}" compare --workload=w.ccl --stream=s.csv --runs=1 --threads=2 \
  >/dev/null || fail "compare pipelined"
"${MOTTO}" compare --workload=w.ccl --stream=s.csv --shards=0 >/dev/null 2>&1
[ $? -eq 1 ] || fail "compare --shards=0 should exit 1"

# explain --shards annotates the plan with the data-parallel partition.
"${MOTTO}" explain --workload=w.ccl --stream=s.csv --shards=4 \
  > explain_shards.out || fail "explain --shards=4"
grep -q -- "-- partition --" explain_shards.out \
  || fail "explain partition section missing"
grep -q "components" explain_shards.out || fail "partition summary missing"
"${MOTTO}" explain --workload=w.ccl --stream=s.csv --shards=4 --json=ep.json \
  >/dev/null || fail "explain --shards --json"
python3 - <<'EOF' || fail "explain partition JSON invalid"
import json
d = json.load(open("ep.json"))
p = d["partition"]
assert p["shards"] == 4, p
assert p["components"], p
assert len(p["assignments"]) == 4, p
for a in p["assignments"]:
    for key in ("id", "group", "time_slices", "slice", "components"):
        assert key in a, (key, a)
EOF
"${MOTTO}" explain --workload=w.ccl --stream=s.csv --shards=0 >/dev/null 2>&1
[ $? -eq 1 ] || fail "explain --shards=0 should exit 1"

# Live serve telemetry (DESIGN.md §16): a batch-mode serve run appends
# statusz-shaped snapshots to --stats-log, which `motto top --from-log`
# renders; flag errors must name the flag.
"${MOTTO}" wire-encode --stream=s.csv --out=s.bin >/dev/null \
  || fail "wire-encode for top"
"${MOTTO}" serve --workload=w.ccl --stream=s.csv --stats-log=top.jsonl \
  < s.bin > serve_top.out 2>&1 || fail "batch serve with --stats-log"
grep -q "serve: end of stream" serve_top.out || fail "serve end banner missing"
[ -s top.jsonl ] || fail "stats log empty after batch serve"
"${MOTTO}" top --from-log=top.jsonl --once > top.out \
  || fail "motto top --from-log"
grep -q "motto serve  seq" top.out || fail "top header missing"
grep -q "QUERY" top.out || fail "top per-query table missing"
grep -q "NODE" top.out || fail "top per-node table missing"
grep -q "ingested 5000" top.out || fail "top did not show the full stream"
"${MOTTO}" top >/dev/null 2>err.txt
[ $? -eq 1 ] || fail "top without --port/--from-log should exit 1"
grep -q "motto top needs --port" err.txt \
  || fail "top usage error should explain the sources"
"${MOTTO}" top --from-log=top.jsonl --interval=0 >/dev/null 2>&1
[ $? -eq 1 ] || fail "top --interval=0 should exit 1"
"${MOTTO}" serve --workload=w.ccl --stream=s.csv --snapshot-interval=abc \
  < s.bin >/dev/null 2>err.txt
[ $? -eq 1 ] || fail "--snapshot-interval=abc should exit 1"
grep -q -- "bad --snapshot-interval='abc'" err.txt \
  || fail "--snapshot-interval error should name the flag"
"${MOTTO}" serve --workload=w.ccl --stream=s.csv --stats-log \
  < s.bin >/dev/null 2>err.txt
[ $? -eq 1 ] || fail "bare --stats-log should exit 1"
grep -q -- "--stats-log needs a value" err.txt \
  || fail "bare --stats-log error should name the flag"
"${MOTTO}" serve --workload=w.ccl --stream=s.csv --snapshot-every=-1 \
  < s.bin >/dev/null 2>&1
[ $? -eq 1 ] || fail "--snapshot-every=-1 should exit 1"

# Differential verification: a short fuzz sweep (oracle vs every execution
# path) and the curated repro corpus replayed one pair at a time.
"${MOTTO}" verify --seed=7 --iters=25 > verify.out || fail "verify fuzz"
grep -q " 0 failures" verify.out || fail "verify fuzz found discrepancies"
corpus="$(cd "$(dirname "$0")/.." && pwd)/examples/verify"
for ccl in "${corpus}"/*.ccl; do
  "${MOTTO}" verify --workload="${ccl}" --stream="${ccl%.ccl}.csv" \
    >/dev/null || fail "verify corpus $(basename "${ccl}")"
done

echo "PASS"
