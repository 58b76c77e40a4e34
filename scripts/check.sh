#!/usr/bin/env bash
# Full correctness battery: formatting, vet, build, race-detector tests,
# a 10 s differential fuzz of linear.Enumerate against its reference,
# DSL lint and independent schedule-certification smokes, the optimization
# remarks golden + sync-report smokes, a
# chaos + sanitizer + watchdog smoke of representative suite kernels,
# trace-export and Table W smokes, the tracing overhead guard, the
# one-engine structural gate on internal/exec, the closure-vs-reference
# engine parity gate, the pooled 16-kernel
# chaos+sanitizer reuse sweep, the Table P team-provisioning smoke
# with its BENCH_pool.json envelope validation, the durable-profile
# round trip (full-kernel -profile-out/-ledger sweep, byte-identity merge
# gate, 10-run baseline, chaos-stall regression watch), the profiling
# overhead guard, the Table H profile-rollup smoke with its
# BENCH_profile.json envelope validation, the irregular-suite gates
# (value facts, chaos + sanitizer over inspector-synthesized waits),
# the Table I inspector/executor smoke refreshing BENCH_irreg.json,
# the feedback-loop gates (-profile-in round trip, barrierc -fdo remark
# evidence, the Table F no-regression envelope smoke), and the
# run-lifecycle telemetry gates (span-tree goldens, the -spans round
# trip with its phase-sum/wall check, the /healthz + /runs + /spans
# debug-server smoke, the span overhead guard, and the Table S smoke
# refreshing BENCH_spans.json).
# Run from anywhere; operates on the repository containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "ERROR: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== fuzz smoke (linear FuzzEnumerate, 10s) =="
# The row-form enumerator against the map-based reference kept in
# internal/linear/ref_test.go: same result, same point, same budget edge.
go test -run '^$' -fuzz=FuzzEnumerate -fuzztime=10s ./internal/linear

barrierc="$(mktemp -t barrierc.XXXXXX)"
trap 'rm -f "$barrierc" "${spmdrun_bin:-}" "${spmdprof_bin:-}" "${trace_tmp:-}" "${pool_tmp:-}" "${profh_tmp:-}"; rm -rf "${prof_dir:-}" "${span_dir:-}"' EXIT
go build -o "$barrierc" ./cmd/barrierc

echo "== lint smoke (barrierc -lint) =="
# Exit-code contract: 0 clean (informational notes allowed), 1 findings,
# 2 internal error. Every suite kernel and positive fixture must be clean;
# every negative fixture must exit 1; a missing file must exit 2.
"$barrierc" -list | while read -r k _; do
    "$barrierc" -lint -kernel "$k" >/dev/null || {
        echo "ERROR: suite kernel $k has lint findings" >&2
        exit 1
    }
done
for f in testdata/heat1d.dsl testdata/sweep.dsl testdata/blocked_smooth.dsl; do
    "$barrierc" -lint "$f" >/dev/null || {
        echo "ERROR: $f has lint findings" >&2
        exit 1
    }
done
for f in testdata/lint_oob.dsl testdata/lint_uninit.dsl testdata/lint_dead.dsl \
         testdata/bad_syntax.dsl testdata/bad_semantics.dsl; do
    rc=0; "$barrierc" -lint "$f" >/dev/null || rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "ERROR: $f: lint exit $rc, want 1" >&2
        exit 1
    fi
done
rc=0; "$barrierc" -lint /nonexistent.dsl >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "ERROR: missing-file lint exit $rc, want 2" >&2
    exit 1
fi
echo "-- lint exit codes verified (suite clean, fixtures exit 1, internal error exit 2)"

echo "== certify sweep (barrierc -certify) =="
# Every suite kernel's optimized schedule must pass the independent static
# certifier; a sabotaged schedule must be rejected with exit 1.
"$barrierc" -list | while read -r k _; do
    "$barrierc" -certify -kernel "$k" >/dev/null || {
        echo "ERROR: kernel $k failed certification" >&2
        exit 1
    }
done
rc=0; "$barrierc" -certify -kernel jacobi1d -sabotage 2 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "ERROR: sabotaged jacobi1d certify exit $rc, want 1" >&2
    exit 1
fi
echo "-- all suite kernels certified; sabotaged schedule rejected"

echo "== remarks smoke (barrierc -remarks) =="
# The remarks envelope is a published, byte-stable artifact: the emitted
# JSON must match the checked-in golden fixture exactly (the Go golden
# test pins the same bytes; this is the CLI path), and every suite kernel
# must render a remark per sync site without error.
"$barrierc" -remarks -json -kernel jacobi2d | diff -u cmd/barrierc/testdata/jacobi2d_remarks.json - || {
    echo "ERROR: barrierc -remarks -json drifted from golden (go test ./cmd/barrierc -run RemarksGolden -update)" >&2
    exit 1
}
"$barrierc" -list | while read -r k _; do
    "$barrierc" -remarks -kernel "$k" >/dev/null || {
        echo "ERROR: kernel $k failed -remarks" >&2
        exit 1
    }
done
echo "-- remarks golden byte-exact; all suite kernels render"

echo "== sync report smoke (spmdrun -report) =="
# The static<->runtime join: jacobi2d at P=8 must produce the ranked
# kept-barrier table with both neighbor sites present.
report="$(go run ./cmd/spmdrun -kernel jacobi2d -p 8 -report 2>/dev/null)"
echo "$report" | grep -q "sync report: jacobi2d" || {
    echo "ERROR: spmdrun -report missing report header" >&2
    exit 1
}
if [ "$(echo "$report" | grep -c "neighbor")" -lt 2 ]; then
    echo "ERROR: spmdrun -report: expected 2 kept neighbor sites on jacobi2d" >&2
    exit 1
fi
echo "-- jacobi2d sync report ranked $(echo "$report" | grep -c neighbor) kept sites"

echo "== chaos + sanitizer smoke (spmdrun) =="
# Small inputs: chaos adds microsecond delays around every sync, and the
# point here is schedule soundness under adversarial timing, not throughput.
smoke() {
    local kernel=$1; shift
    echo "-- $kernel $*"
    go run ./cmd/spmdrun -kernel "$kernel" -p 4 \
        -watchdog 60s -chaos-seed 7 -sanitize "$@" >/dev/null
}
smoke jacobi1d -param N=64 -param T=4
smoke redblack -param N=64 -param T=3
smoke pipeline -param N=64 -param M=16
smoke dotchain -param N=64
smoke guardedpivot -param N=32

echo "== irregular suite gates (facts, certify, chaos, inspector) =="
# The irregular-access tier: the -list-driven sweeps above already lint,
# certify and remark every irregular kernel; here the value facts must
# actually print, and each kernel must survive adversarial timing with
# the sanitizer auditing the inspector-synthesized waits while the
# runtime inspector reports per-site scan statistics.
# Captured first: grep -q exits at first match, and under pipefail the
# producer's SIGPIPE would intermittently fail an otherwise-passing gate.
irreg_facts="$(go run ./cmd/barrierc -irreg -kernel permcopy)"
echo "$irreg_facts" | grep -q "permutation" || {
    echo "ERROR: barrierc -irreg lost the permutation fact on permcopy" >&2
    exit 1
}
for k in permcopy gatherscatter spmvcsr meshsmooth edgerelax; do
    echo "-- $k"
    out="$(go run ./cmd/spmdrun -kernel "$k" -p 4 \
        -watchdog 60s -chaos-seed 7 -sanitize)"
    if [ "$k" != permcopy ]; then
        # permcopy is fully static (no inspector sites); the rest must
        # report inspector scans in the run summary.
        echo "$out" | grep -q "inspector:" || {
            echo "ERROR: $k: no inspector summary in spmdrun output" >&2
            exit 1
        }
    fi
done
echo "-- irregular kernels chaos-clean under the sanitizer; inspector stats reported"

echo "== trace smoke (spmdrun -trace) =="
# The Chrome trace export must be valid JSON with per-worker tracks; the
# schema proper is pinned by TestTraceChromeSchema, this is the CLI path.
trace_tmp="$(mktemp -t spmdtrace.XXXXXX.json)"
go run ./cmd/spmdrun -kernel jacobi2d -p 8 -param N=64 -param T=4 \
    -trace "$trace_tmp" -trace-summary >/dev/null 2>&1
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['traceEvents'], 'empty traceEvents'" "$trace_tmp"
fi
echo "-- wrote and validated $(wc -c <"$trace_tmp") bytes of trace JSON"

echo "== tracing overhead guard =="
# Fails if tracing-off regresses >2% against the recorded machine-local
# baseline (scripts/.overhead_baseline, created on first run) or if
# tracing-on costs more than 10% over tracing-off. Env-gated so the
# timing-sensitive comparison never runs under plain 'go test ./...'.
OVERHEAD_GUARD=1 go test -run TestTracingOverheadGuard ./internal/exec -count=1 -v

echo "== benchtab Table W smoke =="
# The wait-decomposition table must build and report optimized wait below
# baseline wait on at least half the suite kernels (acceptance criterion).
tablew="$(go run ./cmd/benchtab -p 4 -table W)"
echo "$tablew" | tail -n 3
echo "$tablew" | grep -q "optimized wait < baseline wait" || {
    echo "ERROR: Table W footer missing" >&2
    exit 1
}
wins=$(echo "$tablew" | sed -n 's/.*optimized wait < baseline wait on \([0-9]*\)\/\([0-9]*\) kernels.*/\1 \2/p')
read -r won total <<<"$wins"
if [ "$won" -lt $(( (total + 1) / 2 )) ]; then
    echo "ERROR: optimized wait beat baseline on only $won/$total kernels (need >= half)" >&2
    exit 1
fi

echo "== one statement engine in internal/exec =="
# The closure frame is the only engine non-test code of the executor may
# know: the tree-walking evaluator lives in ref_test.go as the parity
# reference. Its identifiers turning up in a non-test file means a second
# engine (or the knob that selected it) is drifting back into production.
if engine_hits="$(grep -nwE 'wenv|Backend|evalFloat' \
    $(ls internal/exec/*.go | grep -v '_test\.go$'))"; then
    echo "ERROR: second-engine identifiers in non-test files of internal/exec:" >&2
    echo "$engine_hits" >&2
    exit 1
fi
echo "-- no wenv / Backend / evalFloat outside internal/exec test files"

echo "== backend parity gate =="
# The closure frame must reproduce the tree-walking reference engine
# (internal/exec/ref_test.go) bit for bit on all 21 suite kernels, under
# the optimized schedule and the fork-join baseline, plain and with the
# sanitizer under chaos timing (rank-ordered reductions make both
# deterministic). This is the differential gate behind the compiled
# executor: any float divergence is a lowering bug.
go test -run TestBackendParity ./internal/exec -count=1

echo "== pooled reuse sweep (chaos + sanitizer, one pool) =="
# The tentpole robustness gate: >= 100 back-to-back runs across the
# 16-kernel suite on a single team pool, all chaos-perturbed and
# sanitized, plus a stall-injected retry/fallback leg — every run must
# end correct, with zero cross-run stat/trace/sanitizer contamination,
# quarantines matched by rebuilds, and zero goroutine growth.
sweep_out="$(go test -run TestPooledChaosSanitizerReuseSweep ./internal/exec -count=1 -v)" || {
    echo "$sweep_out" >&2
    echo "ERROR: pooled reuse sweep failed" >&2
    exit 1
}
echo "$sweep_out" | grep "sweep:"

echo "== benchtab Table P smoke (BENCH_pool.json) =="
# The team-provisioning table must build, emit a valid versioned JSON
# envelope, and show pooled provisioning overhead >= 5x below cold spawn
# at P=8 (acceptance floor; see docs/POOL.md for the measurement design).
pool_tmp="$(mktemp -t benchpool.XXXXXX.json)"
go run ./cmd/benchtab -table P -out "$pool_tmp" >/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$pool_tmp" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema_version"] == 1, d
assert d["tool"] == "benchtab-pool", d
rows = {r["workers"]: r for r in d["payload"]["rows"]}
for p in (2, 4, 8, 16):
    assert p in rows, f"P={p} missing from BENCH_pool.json"
    assert rows[p]["cold_ns"] > 0 and rows[p]["pooled_ns"] > 0, rows[p]
s = rows[8]["speedup"]
assert s >= 5.0, f"P=8 pooled overhead speedup {s:.2f}x < 5x acceptance floor"
print(f"-- BENCH_pool.json valid; P=8 provisioning speedup {s:.2f}x")
EOF
fi
rm -f "$pool_tmp"

echo "== profiling overhead guard =="
# The durable-profile path (-profile-out): building and encoding the
# profile after a traced run must cost <= 3% over the tracing-on
# baseline. Env-gated like the tracing guard.
OVERHEAD_GUARD=1 go test -run TestProfilingOverheadGuard ./internal/suite -count=1 -v

echo "== durable profile round trip (spmdrun -profile-out/-ledger + spmdprof) =="
spmdrun_bin="$(mktemp -t spmdrun.XXXXXX)"
spmdprof_bin="$(mktemp -t spmdprof.XXXXXX)"
go build -o "$spmdrun_bin" ./cmd/spmdrun
go build -o "$spmdprof_bin" ./cmd/spmdprof
prof_dir="$(mktemp -d -t spmdprofiles.XXXXXX)"

# 16-kernel sweep: every suite kernel emits a durable profile and appends
# a record to one shared ledger; the ledger summary must see every kernel
# as its own (program, schedule, config) group.
nkernels=0
while read -r k _; do
    "$spmdrun_bin" -kernel "$k" -p 4 \
        -profile-out "$prof_dir/$k.json" -ledger "$prof_dir/sweep.jsonl" \
        >/dev/null 2>/dev/null || {
        echo "ERROR: kernel $k failed with -profile-out/-ledger" >&2
        exit 1
    }
    nkernels=$((nkernels + 1))
done < <("$barrierc" -list)
sweep_summary="$("$spmdprof_bin" ledger "$prof_dir/sweep.jsonl")"
echo "$sweep_summary" | grep -qF "$nkernels record(s), $nkernels group(s)" || {
    echo "ERROR: sweep ledger does not show $nkernels one-run groups" >&2
    echo "$sweep_summary" | head -n 1 >&2
    exit 1
}
echo "-- $nkernels kernels swept; ledger groups match"

# Round-trip determinism gate: spmdprof merge of a single profile must
# re-emit its exact bytes (same sketch, same ordering, same envelope).
"$spmdprof_bin" merge "$prof_dir/jacobi2d.json" >"$prof_dir/roundtrip.json"
cmp -s "$prof_dir/jacobi2d.json" "$prof_dir/roundtrip.json" || {
    echo "ERROR: merge of one profile is not byte-identical to its input" >&2
    exit 1
}
echo "-- single-profile merge byte-identical (round-trip determinism)"

# 10-run jacobi2d baseline: merge must succeed and a clean 11th run must
# diff quiet (exit 0); an injected chaos-stall run must be flagged
# (exit 1) and the ledger watch must name it.
for i in $(seq 1 10); do
    "$spmdrun_bin" -kernel jacobi2d -p 4 -param N=64 -param T=4 \
        -profile-out "$prof_dir/j$i.json" -ledger "$prof_dir/jacobi.jsonl" \
        >/dev/null 2>/dev/null
done
"$spmdprof_bin" merge -o "$prof_dir/baseline.json" "$prof_dir"/j[0-9]*.json 2>/dev/null
"$spmdrun_bin" -kernel jacobi2d -p 4 -param N=64 -param T=4 \
    -profile-out "$prof_dir/clean.json" >/dev/null 2>/dev/null
"$spmdprof_bin" diff "$prof_dir/baseline.json" "$prof_dir/clean.json" >/dev/null || {
    echo "ERROR: clean run flagged as regression against its own baseline" >&2
    exit 1
}
"$spmdrun_bin" -kernel jacobi2d -p 4 -param N=64 -param T=4 \
    -chaos-seed 7 -chaos-stall 5ms \
    -profile-out "$prof_dir/chaos.json" -ledger "$prof_dir/jacobi.jsonl" \
    >/dev/null 2>/dev/null
rc=0; "$spmdprof_bin" diff "$prof_dir/baseline.json" "$prof_dir/chaos.json" \
    >"$prof_dir/diff.txt" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "regression" "$prof_dir/diff.txt"; then
    echo "ERROR: injected 5ms chaos stall not flagged (exit $rc)" >&2
    cat "$prof_dir/diff.txt" >&2
    exit 1
fi
rc=0; "$spmdprof_bin" ledger -watch "$prof_dir/jacobi.jsonl" \
    >"$prof_dir/watch.txt" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "worst site" "$prof_dir/watch.txt"; then
    echo "ERROR: ledger watch missed the chaos-stall run (exit $rc)" >&2
    cat "$prof_dir/watch.txt" >&2
    exit 1
fi
echo "-- 10-run baseline quiet on clean run; chaos stall flagged by diff and ledger watch"

echo "== benchtab Table H smoke (BENCH_profile.json) =="
# The sync-wait profile rollup must build and emit a valid versioned
# JSON envelope with per-kernel merged quantiles.
profh_tmp="$(mktemp -t benchprofile.XXXXXX.json)"
go run ./cmd/benchtab -table H -p 4 -kernels jacobi2d,pipeline -samples 4 \
    -out "$profh_tmp" | tail -n 3
if command -v python3 >/dev/null 2>&1; then
    python3 - "$profh_tmp" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema_version"] == 1, d
assert d["tool"] == "benchtab-profile", d
rows = {r["kernel"]: r for r in d["payload"]["rows"]}
for k in ("jacobi2d", "pipeline"):
    assert k in rows, f"{k} missing from BENCH_profile.json"
    r = rows[k]
    assert r["sites"] > 0 and r["p99_ns"] >= r["p50_ns"] >= 0, r
print("-- BENCH_profile.json valid; p99:",
      ", ".join(f"{k}={rows[k]['p99_ns']}ns" for k in rows))
EOF
fi

echo "== benchtab Table I smoke (BENCH_irreg.json) =="
# The inspector/executor envelope: Table I must build, refresh the
# committed BENCH_irreg.json artifact at the repo root, and show >= 50%
# dynamic barrier-crossing elimination on every irregular kernel (the
# acceptance floor), with the fully static kernels at 100%.
go run ./cmd/benchtab -table I -p 8 -out BENCH_irreg.json | tail -n 4
if command -v python3 >/dev/null 2>&1; then
    python3 - BENCH_irreg.json <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema_version"] == 1, d
assert d["tool"] == "benchtab-irreg", d
rows = {r["kernel"]: r for r in d["payload"]["rows"]}
for k in ("permcopy", "gatherscatter", "spmvcsr", "meshsmooth", "edgerelax"):
    assert k in rows, f"{k} missing from BENCH_irreg.json"
    r = rows[k]
    assert r["reduction"] >= 0.5, f"{k}: reduction {r['reduction']:.3f} < 0.5 floor"
    assert r["base_barriers"] > r["opt_barriers"], r
assert d["payload"]["mean_reduction"] >= 0.5, d["payload"]["mean_reduction"]
print("-- BENCH_irreg.json valid; reductions:",
      ", ".join(f"{k}={rows[k]['reduction']:.0%}" for k in rows))
EOF
fi

echo "== feedback loop gates (-profile-in, barrierc -fdo, Table F) =="
# The profile-guided re-optimization tier: record a profile, feed it back
# through barrierc (the remarks must carry fdo: evidence on every flipped
# site) and spmdrun (the re-optimized run must apply certified flips, stay
# certified and declare its forced tracing), then the Table F smoke must
# emit a valid envelope with zero kernels regressed beyond their paired
# noise bars.
"$spmdrun_bin" -kernel meshsmooth -p 4 -profile-out "$prof_dir/fdo_prof.json" \
    >/dev/null 2>/dev/null
"$barrierc" -kernel meshsmooth -fdo "$prof_dir/fdo_prof.json" -remarks \
    >"$prof_dir/fdo_remarks.txt"
grep -q "fdo:" "$prof_dir/fdo_remarks.txt" || {
    echo "ERROR: barrierc -fdo -remarks carries no fdo: evidence on meshsmooth" >&2
    exit 1
}
"$spmdrun_bin" -kernel meshsmooth -p 4 -profile-in "$prof_dir/fdo_prof.json" \
    -json >"$prof_dir/fdo_run.json" 2>/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$prof_dir/fdo_run.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["tool"] == "spmdrun", d
p = d["payload"]
assert p["certified"], "re-optimized run not certified"
assert p["tracing_forced"], "-profile-in run must declare forced tracing"
f = p.get("fdo") or {}
assert f.get("flips", 0) > 0, "feedback pass applied no flips on meshsmooth"
for dec in f.get("decisions", []):
    if dec["action"] in ("weaken", "promote"):
        assert dec["certified"], f"uncertified flip: {dec}"
print(f"-- -profile-in applied {f['flips']} certified flip(s); run certified")
EOF
fi
go run ./cmd/benchtab -table F -p 4 -kernels meshsmooth,spmvcsr -samples 10 \
    -out "$prof_dir/tablef.json" | tail -n 3
if command -v python3 >/dev/null 2>&1; then
    python3 - "$prof_dir/tablef.json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema_version"] == 1, d
assert d["tool"] == "benchtab-fdo", d
p = d["payload"]
rows = {r["kernel"]: r for r in p["rows"]}
for k in ("meshsmooth", "spmvcsr"):
    assert k in rows, f"{k} missing from Table F output"
    assert rows[k]["flips"] > 0, f"{k}: no flips applied"
    assert not rows[k].get("regressed"), \
        f"{k}: profile-guided schedule regressed beyond its noise bar: {rows[k]}"
assert p["regressed"] == 0, p
print("-- Table F envelope valid; saves:",
      ", ".join(f"{k}={rows[k]['save_ns']}ns" for k in rows))
EOF
fi

echo "== span-tree goldens (lifecycle tree, Chrome interleaving) =="
# The jacobi2d span tree and its Perfetto interleaving are pinned
# artifacts: the tree must match the golden byte for byte, be
# deterministic across runs, and sum its top-level phases to the wall.
go test -run 'TestSpanTree|TestChromeExport|TestPhaseDurations|TestExecuteSpanAttrs' \
    ./internal/telemetry -count=1

echo "== spans round trip (spmdrun -spans -json) =="
# One observed run: the envelope and the spans file must share a trace
# id, cover every lifecycle phase, and the top-level phase durations
# must sum to the envelope wall within 5% (the acceptance bound).
span_dir="$(mktemp -d -t spmdspans.XXXXXX)"
"$spmdrun_bin" -kernel jacobi2d -p 4 -param N=64 -param T=4 \
    -json -spans "$span_dir/spans.json" >"$span_dir/run.json" 2>/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$span_dir/run.json" "$span_dir/spans.json" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1])); spans = json.load(open(sys.argv[2]))
assert run["tool"] == "spmdrun", run["tool"]
assert spans["schema_version"] == 1 and spans["tool"] == "spmdrun-spans", spans
p, sp = run["payload"], spans["payload"]
assert p["trace_id"] and p["trace_id"] == sp["trace_id"], (p.get("trace_id"), sp.get("trace_id"))
wall = p["wall_ns"]
assert wall > 0 and wall == sp["wall_ns"], (wall, sp["wall_ns"])
names = {s["name"] for s in sp["spans"]}
for phase in ("run", "compile", "execute", "setup", "attempt", "team run", "verify"):
    assert phase in names, f"missing phase span {phase!r}: {sorted(names)}"
assert all(s["dur_ns"] >= 0 for s in sp["spans"]), "open span leaked into export"
tops = sum(s["dur_ns"] for s in sp["spans"] if s.get("parent_id") == 1)
ratio = tops / wall
assert 0.95 <= ratio <= 1.05, f"phase sum / wall = {ratio:.3f}, want within 5%"
print(f"-- trace {p['trace_id']}: {len(sp['spans'])} spans, phase-sum/wall {ratio:.3f}")
EOF
fi

echo "== debug server smoke (/healthz, /runs, /spans/<id>, /metrics) =="
# One-shot spmdrun with a linger window: the debug endpoints must serve
# a healthy status, the run's trace id (newest first), the span export
# by id, and the per-site wait families in the Prometheus exposition.
if command -v python3 >/dev/null 2>&1; then
    "$spmdrun_bin" -kernel jacobi2d -p 4 -param N=64 -param T=4 \
        -metrics-addr 127.0.0.1:0 -metrics-linger 30s \
        >/dev/null 2>"$span_dir/metrics.err" &
    span_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's#^metrics:  serving http://\([^/]*\)/metrics.*#\1#p' "$span_dir/metrics.err")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "ERROR: spmdrun -metrics-addr never announced its address" >&2
        cat "$span_dir/metrics.err" >&2
        kill "$span_pid" 2>/dev/null || true
        exit 1
    fi
    # The run itself must finish (lingering) before the ring has the run.
    for _ in $(seq 1 100); do
        grep -q "lingering" "$span_dir/metrics.err" && break
        sleep 0.1
    done
    python3 - "$addr" <<'EOF'
import json, sys, urllib.request
addr = sys.argv[1]
get = lambda path: urllib.request.urlopen(f"http://{addr}{path}", timeout=5).read()
h = json.loads(get("/healthz"))
assert h["status"] == "ok" and h["runs"] >= 1, h
runs = json.loads(get("/runs?n=1"))
assert len(runs) == 1 and runs[0]["trace_id"] and runs[0]["outcome"] == "ok", runs
tid = runs[0]["trace_id"]
spans = json.loads(get(f"/spans/{tid}"))
assert spans["tool"] == "spmdrun-spans", spans["tool"]
assert spans["payload"]["trace_id"] == tid, spans["payload"]["trace_id"]
prom = get("/metrics").decode()
assert "spmd_runs_total 1" in prom, prom[:400]
assert "spmd_site_wait_ns{" in prom, "per-site wait family missing"
assert "spmd_run_elapsed_ns{" in prom, "run latency quantiles missing"
print(f"-- /healthz ok; /runs newest trace {tid}; /spans round trip; /metrics has site waits")
EOF
    kill "$span_pid" 2>/dev/null || true
    wait "$span_pid" 2>/dev/null || true
fi

echo "== span overhead guard =="
# The span layer's cost envelope, PR-2 style (env-gated, noise-floored,
# one re-measure at double depth before a row may judge regressed):
# spans-on must stay within 2% of spans-off whole-request walls.
OVERHEAD_GUARD=1 go test -run TestSpanOverheadGuard \
    ./internal/suite -count=1 -v

echo "== benchtab Table S smoke (BENCH_spans.json) =="
# Table S must build, refresh the committed BENCH_spans.json artifact,
# and report zero rows regressed beyond the 2% overhead envelope.
go run ./cmd/benchtab -table S -p 4 -out BENCH_spans.json | tail -n 3
if command -v python3 >/dev/null 2>&1; then
    python3 - BENCH_spans.json <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema_version"] == 1, d
assert d["tool"] == "benchtab-spans", d
p = d["payload"]
assert p["threshold_pct"] == 2.0, p["threshold_pct"]
rows = {r["kernel"]: r for r in p["rows"]}
for k in ("jacobi2d", "dotchain", "tred2like"):
    assert k in rows, f"{k} missing from BENCH_spans.json"
    r = rows[k]
    assert r["off_ns"] > 0 and r["on_ns"] > 0 and r["spans"] >= 8, r
    assert not r["regressed"], f"{k}: span overhead {r['overhead_pct']:.2f}% regressed"
assert p["regressions"] == 0, p["regressions"]
print("-- BENCH_spans.json valid; overhead:",
      ", ".join(f"{k}={rows[k]['overhead_pct']:.2f}%" for k in rows))
EOF
fi

echo "== sabotage must be caught =="
# Dropping a scheduled sync edge has to make spmdrun fail (sanitizer
# violation and/or divergence from the sequential oracle).
if go run ./cmd/spmdrun -kernel jacobi1d -p 4 -param N=64 -param T=4 \
    -watchdog 60s -sanitize -sabotage 2 >/dev/null 2>&1; then
    echo "ERROR: sabotaged schedule went undetected" >&2
    exit 1
fi
echo "-- sabotaged jacobi1d detected (as required)"

echo "ALL CHECKS PASSED"
