#!/usr/bin/env bash
# Full correctness battery: formatting, vet, build, the race-detector run
# of every test (`go test -race ./...`: the hoisted-check, gather, row-form
# and inspector tables, the engine parity gate, the pooled chaos + sanitizer
# reuse sweep, the span-tree goldens — a later leg only checks by name that
# those gates still exist), a 10 s differential fuzz of linear.Enumerate
# against its reference, DSL lint and schedule-certification sweeps, the
# remarks golden, explain and sync-report smokes, a chaos + sanitizer smoke
# of representative kernels under a whole-run -timeout, the irregular-suite gates (value facts,
# inspector stats, no scan silently degraded to the conservative row), the
# trace-export smoke, the overhead and feedback guards (tracing, profile,
# spans, static vs profile-guided wait: one table-driven test over
# suite.Paired), the structural gates (one statement engine and one scan in
# internal/exec, one loop driver, one schedule lowering, one timing sampler
# and no second timing harness), the durable-profile round trip (full-kernel -profile-out/-ledger
# sweep, byte-identity merge gate, 10-run baseline, slow-run regression
# watch), the feedback-loop round trip (-profile-in, barrierc -fdo remark
# evidence), the -trace -json round trip with its phase-sum/wall and
# trace-id checks and the sabotage check. Timings other than the guards are
# `go run ./bench`'s to measure; this script leaves the working tree as it
# found it.
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
trap 'rm -f "$barrierc" "${spmdrun_bin:-}" "${spmdprof_bin:-}" "${trace_tmp:-}"; rm -rf "${prof_dir:-}" "${span_dir:-}"' EXIT
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
# certifier; a sabotaged schedule must be rejected with exit 1 and its
# rejection envelope (certified:false, with the violations) on stdout.
"$barrierc" -list | while read -r k _; do
    "$barrierc" -certify -kernel "$k" >/dev/null || {
        echo "ERROR: kernel $k failed certification" >&2
        exit 1
    }
done
rc=0; rejected="$("$barrierc" -certify -kernel jacobi1d -sabotage 2 2>/dev/null)" || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "ERROR: sabotaged jacobi1d certify exit $rc, want 1" >&2
    exit 1
fi
case "$rejected" in
*'"certified": false'*'"violations"'*) ;;
*)
    echo "ERROR: sabotaged jacobi1d certify printed no rejection envelope" >&2
    exit 1
    ;;
esac
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

echo "== explain smoke (barrierc -explain) =="
# -explain renders the compilation the other views read: every kernel -list
# prints explains, twice byte for byte (serial loops in source order, not
# map order), and -cyclic reaches the placements it prints.
"$barrierc" -list | while read -r k _; do
    a="$("$barrierc" -explain -kernel "$k")" || {
        echo "ERROR: kernel $k failed -explain" >&2
        exit 1
    }
    b="$("$barrierc" -explain -kernel "$k")"
    [ "$a" = "$b" ] || {
        echo "ERROR: kernel $k: two -explain runs differ" >&2
        exit 1
    }
done
cyclic_explain="$("$barrierc" -kernel jacobi1d -cyclic -explain)"
echo "$cyclic_explain" | grep -q "placement: cyclic" || {
    echo "ERROR: barrierc -kernel jacobi1d -cyclic -explain names no cyclic placement" >&2
    exit 1
}
echo "-- all suite kernels explain, byte-identical twice; -cyclic reaches the placements"

echo "== sync report smoke (spmdrun -report) =="
# The static<->runtime join: jacobi2d at P=8 must produce the ranked
# kept-barrier table, headed by the worker-time attribution, with both
# neighbor sites present.
report="$(go run ./cmd/spmdrun -kernel jacobi2d -p 8 -report 2>/dev/null)"
echo "$report" | grep -q "sync report: jacobi2d" || {
    echo "ERROR: spmdrun -report missing report header" >&2
    exit 1
}
echo "$report" | grep -q "^worker time .* (P × span): compute " || {
    echo "ERROR: spmdrun -report missing the worker-time attribution line" >&2
    exit 1
}
kept="$(echo "$report" | grep -cE '^[0-9]+ +neighbor ')"
if [ "$kept" -lt 2 ]; then
    echo "ERROR: spmdrun -report: expected 2 kept neighbor sites on jacobi2d" >&2
    exit 1
fi
echo "-- jacobi2d sync report ranked $kept kept neighbor sites"

echo "== chaos + sanitizer smoke (spmdrun) =="
# Small inputs: chaos adds microsecond delays around every sync, and the
# point here is schedule soundness under adversarial timing, not throughput.
smoke() {
    local kernel=$1; shift
    echo "-- $kernel $*"
    go run ./cmd/spmdrun -kernel "$kernel" -p 4 \
        -timeout 60s -chaos-seed 7 -sanitize "$@" >/dev/null
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
        -timeout 60s -chaos-seed 7 -sanitize)"
    if [ "$k" != permcopy ]; then
        # permcopy is fully static (no inspector sites); the rest must
        # report inspector scans in the run summary.
        echo "$out" | grep -q "inspector:" || {
            echo "ERROR: $k: no inspector summary in spmdrun output" >&2
            exit 1
        }
    fi
done
# A scan that degrades to the conservative row keeps every test green (the
# row is a superset) and loses the optimisation: the field is omitted from
# the JSON when zero, so its name must not appear.
edgerelax_json="$(go run ./cmd/spmdrun -kernel edgerelax -p 4 -json 2>/dev/null)"
echo "$edgerelax_json" | grep -q '"inspector"' || {
    echo "ERROR: spmdrun -kernel edgerelax -json carries no inspector map" >&2
    exit 1
}
if echo "$edgerelax_json" | grep -q '"conservative"'; then
    echo "ERROR: edgerelax: an inspector scan fell back to the conservative row" >&2
    exit 1
fi
echo "-- irregular kernels chaos-clean under the sanitizer; inspector stats reported; no conservative scan"

echo "== trace smoke (spmdrun -trace) =="
# The Chrome trace export must be valid JSON with per-worker tracks; the
# schema proper is pinned by TestTraceChromeSchema, this is the CLI path.
trace_tmp="$(mktemp -t spmdtrace.XXXXXX.json)"
go run ./cmd/spmdrun -kernel jacobi2d -p 8 -param N=64 -param T=4 \
    -trace "$trace_tmp" >/dev/null 2>&1
if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json,sys; d=json.load(open(sys.argv[1])); assert d['traceEvents'], 'empty traceEvents'" "$trace_tmp"
fi
echo "-- wrote and validated $(wc -c <"$trace_tmp") bytes of trace JSON"

echo "== guards (tracing <= 10%, profile <= 3%, spans <= 2%, fdo wait <= static) =="
# One table-driven test, each bound one suite.Paired comparison (see
# docs/INTERNALS.md, "How a timing comparison is made"): it fails on a
# worse verdict and logs an unresolved one; the two feedback rows also
# assert that re-optimization flips a site on meshsmooth and spmvcsr.
# Env-gated so no timing comparison ever runs under plain 'go test ./...'.
OVERHEAD_GUARD=1 go test -run TestOverheadGuards ./internal/suite -count=1 -v

echo "== one statement engine in internal/exec =="
# The closure frame is the only engine non-test code of the executor may
# know: the tree-walking evaluator lives in ref_test.go as the parity
# reference. Its identifiers turning up in a non-test file means a second
# engine (or the knob that selected it) is drifting back into production.
# The same goes for the inspector: its scans run lowered closures and a
# bitset; the tree-walking scan (scanEnv.evalInt over map footprints) lives
# in refscan_test.go as the reference the rows are compared against.
if engine_hits="$(grep -nE '\<(wenv|Backend|evalFloat|scanEnv|evalInt)\>|map\[int64\]bool' \
    $(ls internal/exec/*.go | grep -v '_test\.go$'))"; then
    echo "ERROR: second-engine or second-scan identifiers in non-test files of internal/exec:" >&2
    echo "$engine_hits" >&2
    exit 1
fi
echo "-- no wenv / Backend / evalFloat / scanEnv / evalInt / map[int64]bool outside internal/exec test files"

echo "== one loop driver (compile.Prog.Range) =="
# Every loop — the sequential loop statement, a partitioned slice, a
# wavefront relay — runs through the RangeFn its lowering built, which is
# where the hoisted range check and its fallback live. A body accessor or a
# bodies map coming back means a second driver that iterates a body by
# hand, past that check.
if driver_hits="$(grep -nE '\.Body\(|bodies\[' \
    $(ls internal/exec/*.go internal/compile/*.go | grep -v '_test\.go$'))"; then
    echo "ERROR: a loop body is reachable outside Prog.Range:" >&2
    echo "$driver_hits" >&2
    exit 1
fi
# Every innermost loop runs through one entry plan driver, plan.rangeFn in
# cursor.go and the plan methods it calls: the cursor range check
# (curRef.enter) and the row-legality decision (rowLegal) each have exactly
# one non-test call site, and it lies inside a method of plan, so no second
# driver can check or decide on its own. The row body has no exported method,
# and the executor does not know the type exists.
for call in '\.enter\(fr, ' 'rowLegal\('; do
    sites="$(grep -nE "$call" $(ls internal/compile/*.go | grep -v '_test\.go$') | grep -v 'var rowLegal' || true)"
    line="$(echo "$sites" | sed -n 's/^internal\/compile\/cursor\.go:\([0-9]*\):.*/\1/p')"
    owner="$(awk -v l="${line:-0}" 'NR <= l && /^func / { f = $0 } END { print f }' internal/compile/cursor.go)"
    if [ "$(echo "$sites" | grep -c .)" -ne 1 ] || [ -z "$line" ] || ! echo "$owner" | grep -q '^func (pl \*plan) '; then
        echo "ERROR: $call must have one non-test call site, in a plan method of cursor.go (the driver):" >&2
        echo "$sites" >&2
        exit 1
    fi
done
row_hits="$(grep -nE 'func \(rb \*rowBody\) [A-Z]' internal/compile/*.go || true
    grep -nE 'rowBody|rowChunk' $(ls internal/exec/*.go | grep -v '_test\.go$') || true)"
if [ -n "$row_hits" ]; then
    echo "ERROR: the row body leaks out of internal/compile's loop driver:" >&2
    echo "$row_hits" >&2
    exit 1
fi
echo "-- no .Body( / bodies[ in non-test files of internal/exec and internal/compile; curRef.enter and rowLegal called once each, from the plan driver"

echo "== one schedule lowering (syncopt.Lower) =="
# The executor and the cost simulator run the step program syncopt.Lower
# flattens a schedule into, numbered sites included, and the certifier
# proves that same program; none of them walks the region tree. A region
# record, a mode or region lookup, the sequential-loop mode or a region
# mirror turning up in a non-test file of any of them (or of core's
# certify adapter) means a second walk — and a second site numbering — is
# drifting back.
lowering_hits="$(grep -nE 'RegionSched|\.Regions\[|\.Modes\[|ModeSeqLoop' \
    $(ls internal/exec/*.go internal/costsim/*.go | grep -v '_test\.go$') || true
    grep -nE 'RegionSched|\.Regions\[|\.Groups|certify\.Region' \
    $(ls internal/certify/*.go | grep -v '_test\.go$') internal/core/certify.go || true)"
if [ -n "$lowering_hits" ]; then
    echo "ERROR: a schedule walk in non-test files of internal/exec, internal/costsim or internal/certify:" >&2
    echo "$lowering_hits" >&2
    exit 1
fi
echo "-- no RegionSched / .Regions[ / .Modes[ / ModeSeqLoop outside internal/exec and internal/costsim test files; no region mirror in internal/certify or core's adapter"

echo "== one affine form (linear.Affine) =="
# An affine expression is one sorted slice of terms: Add, Sub, Scale and
# Substitute are merges, and the solver numbers a system's variables by
# merging its rows. A map keyed by Var in the form or in the row compiler
# means a second representation (and per-term hashing) is back; the
# evaluation environments Eval and Holds take are API. The lowering writes
# cursor subscripts through ir.AffineEnv and compile.LowerAffine, not a
# register-affine builder of its own.
affine_hits="$(grep -nE 'map\[Var\]' internal/linear/affine.go internal/linear/row.go internal/linear/system.go \
    | grep -vE 'env map\[Var\]int64\)' || true
    grep -nE 'func \(c \*cc\) affine' $(ls internal/compile/*.go | grep -v '_test\.go$') || true)"
if [ -n "$affine_hits" ]; then
    echo "ERROR: a second affine form in internal/linear or internal/compile:" >&2
    echo "$affine_hits" >&2
    exit 1
fi
echo "-- no map[Var] in linear's affine form or row compiler; no cc.affine in internal/compile"

echo "== one timing sampler =="
# suite.Paired is the only pairing scheme, reduction and verdict in the
# tree, and `go run ./bench` the only timing harness. The names of the seven
# schemes Paired replaced, of the stamped baseline file, of the tolerance
# env knobs, of the second harness (its measurers, its check.sh helper,
# its committed result files), of the serving face (debug-server flags
# and package, the process-wide aggregator, the expvar surfaces) and of the
# second reduction merge and team source, of the feedback pass's settable
# thresholds (now the pass's constants), of its barrier-algorithm
# recommendation, of the diff thresholds and pool bound (now constants), and
# of the execution-model argument the schedule now decides (its
# Lower(forkJoin) flag, costsim's Mode, core's per-schedule index and the
# baseline verdict and remark accessors), and of the functions only tests
# called that the reachability gate found and that were deleted outright
# (core's three unused request options and its unmemoized certify call,
# the parser's panicking parse, the interpreter's two exported evaluators,
# the solver's implication test and five accessors), of the second team
# spawn path Team.Run had beside the persistent team's, of the per-wait
# stall watchdog beside the run's one deadline (its setter, config field,
# report type and flag), of the second span export beside the Chrome
# file's lifecycle track (its envelope tool and flag), of barrierc's
# -witness switch (-certify always prints its verdict), and of the second
# set of loop drivers a width-1 run hooked in beside the compiled program's
# (compile's hook type and exec's hooked loops), must not come back in any
# .go or .sh file, in docs/ or in README.md.
retired='pairedMedianWait|medianRun|pairedMeanNoise|medianDuration|baselineStamp|overhead_baseline|OVERHEAD_TOL|TRACE_ON_TOL|PROFILE_TOL|SPAN_GUARD_PAIRS|MeasurePoolBench|MeasureSpanBench|MeasureFDOBench|MeasureProfileBench|benchtab_smoke|BENCH_[a-z]*\.json|metrics-addr|metrics-linger|internal/metrics|telemetry\.Default|WatchdogTrips|barrier_analysis|team_pool|execRegion|execTop|activeWorkers|evalAffine|dropSyncopt|DeterministicReductions|NoPool|relayLoop|mergeScalar|poolOn|contentGCD|MinShare|WeakenFactor|PromoteFactor|PromoteShare|AlgoShare|AlgoContentionNS|BarrierAuto|recommendAlgo|DiffOptions|MaxIdlePerKey|BaselineVerdict|BaselineRemarks|schedOptimized|schedBaseline|costsim\.Mode|costsim\.SPMD|costsim\.ForkJoin|Lower\((true|false)|WithBaseline|WithBarrier|WithProfile|MustParse|EvalFloat|EvalBool|SiteWait|BySite|\.Implies\(|\.NumSites\(\)|\.Traced\(\)|\.MeanSlack\(\)|\.Certify\(\)|runWorkers|SetWatchdog|WatchdogTimeout|DeadlockError|ToolSpans|spmdrun-spans|Var\(&o\.watchdog|Var\(&o\.spansOut|Bool\("witness"|compile\.Hook|lowerSeq|seqLoops?\b|seqScoped' # retired-names
if sampler_hits="$({ find . \( -name '*.go' -o -name '*.sh' \) -not -path './.git/*' -print0
    printf '%s\0' docs/*.md README.md; } | xargs -0 grep -nE "$retired" | grep -v '# retired-names$')"; then
    echo "ERROR: a retired timing scheme, knob or serving surface is back:" >&2
    echo "$sampler_hits" >&2
    exit 1
fi
echo "-- no retired pairing scheme, baseline file, tolerance knob, second-harness, serving-face, reduction-merge, team-spawn, feedback-threshold, barrier-recommendation, diff-threshold, pool-bound, execution-model-argument, test-only-function, second-spawn-path, stall-watchdog, second-span-export, -witness or width-1 hook name in any .go or .sh file, docs/ or README.md"

echo "== pinned gates still exist =="
# The -race leg above has already run these; what is checked here is that
# none was renamed or deleted, so the gate it stands for cannot vanish
# quietly: the closure frame against the tree-walking reference engine bit
# for bit on all 21 kernels (TestBackendParity); the row-form differentials,
# legality tables, the operator-by-shape table of its loops and the pinned
# list of kernels that take row entries; the >= 100-run pooled chaos +
# sanitizer reuse sweep; the cancelled pooled run whose team is closed so
# the next checkout builds cold; the span-tree and
# Chrome-interleaving goldens; the irregular suite's >= 50% floor; the
# feedback loop's property suite; the site-numbering agreement of remarks,
# executor and certifier; the simulator's Figure 4 and Gantt goldens and
# its per-kernel sync counts against the executor's; the certifier's
# certificate golden and its step mutants; the final-state golden, the
# 50-seed chaos determinism of the reduction fold, the trace's
# pseudo-site table, the affine form's differential fuzz, the row form's
# gather/scatter, nest and index-guard fuzzes, the loop memos' sabotage
# test, fuzz and once-per-time-loop check count, the loop entries'
# decisions (row entries, fallbacks, checks, legality) in two goldens, the one per-site
# account of a traced run (profile, report and counts against the trace
# summary's rows) with the summary's exact row on fixed timestamps, the
# team widths runners choose, with narrowed runs held to the fixed-width
# final state and, with no team, to a one-worker team's bits on every scalar
# (privates and reductions included) and to no pool checkout, the compiled
# meaning of annotated loops and the cancelled narrowed nest, the seeded
# image later runs copy, the profile reader's decode fuzz with its hostile seeds, the
# ledger reader's fuzz, schema check and torn-tail recovery, the one join
# a Do's profile and
# report share, -explain's source order, compile flags, listed kernels
# and feedback schedule, -certify's rejection envelope, the cancelled
# run's per-worker report (spmdrt, where a returned worker reads returned, a
# pooled exec run and spmdrun's -timeout stall), the -trace file as the one span export joined by
# trace id, the runner whose execution model, verdict and profile mode come from the
# schedule it runs, not from Config.Mode, and the reachability gate: every
# function under internal/ has a caller outside tests, checked on the tree
# and on a fixture module where a planted test-only export must be caught.
pinned() {
    local pkg=$1 listed t; shift
    listed="$(go test -list '.*' "$pkg")"
    for t in "$@"; do
        echo "$listed" | grep -qx "$t" || {
            echo "ERROR: $pkg no longer has $t" >&2
            exit 1
        }
    done
}
pinned ./internal/exec TestBackendParity TestRowFormOnATeam TestRowFormOnFuzzedPrograms \
    TestRowLegalityTableOnATeam TestFinalStateGolden TestChaosRunsAreDeterministic TestTracePseudoSites \
    TestChecksOncePerTimeLoop \
    TestOneSiteAccount TestEntryDecisionsGolden TestWidthDecisionsGolden \
    TestNarrowedRunEqualsOneWorkerTeam TestSeededImage TestWidthOneKeepsTeamWhenObserved
pinned ./internal/compile TestKernelsTakeRowForm TestRowLegalityTable \
    TestRowSabotagedLegalityIsCaught TestRowEntryNeedsEveryEnter TestRowSlices \
    FuzzRowGather TestRowGatherMatchesInterp FuzzRowNest TestRowNestMatchesInterp \
    FuzzRowGuard TestRowGuardMatchesInterp TestRowOperatorShapes TestCSRRowsTakeANestPlan \
    TestMemoSabotagedScopeIsCaught FuzzStepMemo TestStepMemoMatchesInterp TestEntryDecisionsGolden \
    TestPlanSabotagedBoxIsCaught TestRunSeqAnnotatedLoops
pinned ./internal/telemetry TestSpanTreeGolden TestSpanTreeDeterministic \
    TestPhaseDurationsSumToWall TestExecuteSpanAttrs \
    TestChromeExportInterleavesSpansAndSyncEvents TestChromeExportDeterministicShape
pinned ./internal/suite TestIrregularBarrierElimination TestFDOPropertySuite TestOverheadGuards \
    TestSiteNumberingAgreement
pinned ./internal/costsim TestSyncCountsMatchExecutor TestFigure4Golden TestGanttGolden
pinned ./internal/certify TestCertificateGolden TestStepMutants
pinned ./internal/synctrace TestRingGrowsToCap TestSummarizeSiteRow
pinned ./internal/linear FuzzAffine TestAffineMatchesReference
pinned ./internal/profile FuzzDecode FuzzReadLedger TestLoadLedgerErrSchema TestLedgerRoundTrip
pinned ./internal/core TestRunnerModeComesFromSchedule TestProfileAndReportAgree
pinned ./cmd/barrierc TestExplainSerialLoopsInSourceOrder TestExplainHonoursCompileFlags \
    TestExplainEveryListedKernel TestExplainHonoursFDO TestCertifyRejectionEnvelope
pinned ./cmd/spmdrun TestTimeoutStallFailsLoudly TestTraceFlagEndToEnd \
    TestTraceIDJoinsEnvelopeLedgerAndSpans TestSpansOffStillStampsTraceID
pinned ./internal/spmdrt TestWatchdogReportNamesEveryBlockedWorker TestPersistentTeamWatchdogGeneration \
    TestCancelReportsReturnedWorker
pinned ./internal/exec TestRunContextCancel
grep -q 't.Run("deadline mid-run, narrowed nest"' internal/exec/context_test.go || {
    echo "ERROR: TestRunContextCancel no longer cancels a narrowed nest" >&2
    exit 1
}
pinned ./internal/pool TestPooledChaosSanitizerReuseSweep TestRunContextCancelPooled TestNarrowedRunLeasesNoTeam
pinned . TestEveryInternalFuncHasAProductionCaller TestDeadcodeGateOnFixture
echo "-- parity, row-form, pooled-sweep, pooled-cancel, final-state, chaos-determinism, pseudo-site, span-golden, irregular-floor, feedback, site-numbering, simulator, certifier, affine-form, site-account, team-width, width-1, seeded-image, profile-decode, ledger-read, one-join, explain, certify-rejection, cancel-report, trace-export, runner-mode and reachability gates present"

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

# 10-run jacobi2d baseline: merge must succeed, an eleventh run at 8x the
# size must be flagged (exit 1) and the ledger watch must name it: profile
# compatibility and the ledger's group key ignore params, so the slow run
# joins the baseline's group and its waits read as a regression. That a
# clean run diffs quiet is pinned on fixed sketches (profile
# TestDiffQuietOnNoise, spmdprof TestDiffExitCodes), not on a live run.
for i in $(seq 1 10); do
    "$spmdrun_bin" -kernel jacobi2d -p 4 -param N=64 -param T=4 \
        -profile-out "$prof_dir/j$i.json" -ledger "$prof_dir/jacobi.jsonl" \
        >/dev/null 2>/dev/null
done
"$spmdprof_bin" merge -o "$prof_dir/baseline.json" "$prof_dir"/j[0-9]*.json 2>/dev/null
"$spmdrun_bin" -kernel jacobi2d -p 4 -param N=512 -param T=4 \
    -profile-out "$prof_dir/slow.json" -ledger "$prof_dir/jacobi.jsonl" \
    >/dev/null 2>/dev/null
rc=0; "$spmdprof_bin" diff "$prof_dir/baseline.json" "$prof_dir/slow.json" \
    >"$prof_dir/diff.txt" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "regression" "$prof_dir/diff.txt"; then
    echo "ERROR: the N=512 run not flagged against the N=64 baseline (exit $rc)" >&2
    cat "$prof_dir/diff.txt" >&2
    exit 1
fi
rc=0; "$spmdprof_bin" ledger -watch "$prof_dir/jacobi.jsonl" \
    >"$prof_dir/watch.txt" || rc=$?
if [ "$rc" -ne 1 ] || ! grep -q "worst site" "$prof_dir/watch.txt"; then
    echo "ERROR: ledger watch missed the N=512 run (exit $rc)" >&2
    cat "$prof_dir/watch.txt" >&2
    exit 1
fi
echo "-- 10-run baseline merged; slow run flagged by diff and ledger watch"

echo "== feedback loop round trip (-profile-in, barrierc -fdo) =="
# The profile-guided re-optimization tier: record a profile, feed it back
# through barrierc (the remarks must carry fdo: evidence on every flipped
# site) and spmdrun (the re-optimized run must apply certified flips, stay
# certified and declare its forced tracing). That the re-optimized schedule
# does not wait more than the static one is two rows of the guards above.
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
echo "== trace round trip (spmdrun -trace -json -ledger) =="
# One traced run: the Chrome file's lifecycle track covers every phase,
# its top-level slices sum to the envelope's wall_ns within 5% (the
# acceptance bound), and its run_metadata trace_id is the envelope's and
# the ledger record's.
span_dir="$(mktemp -d -t spmdspans.XXXXXX)"
"$spmdrun_bin" -kernel jacobi2d -p 4 -param N=64 -param T=4 \
    -trace "$span_dir/trace.json" -json -ledger "$span_dir/ledger.jsonl" \
    >"$span_dir/run.json" 2>/dev/null
if command -v python3 >/dev/null 2>&1; then
    python3 - "$span_dir/run.json" "$span_dir/trace.json" "$span_dir/ledger.jsonl" <<'EOF'
import json, sys
run = json.load(open(sys.argv[1])); trace = json.load(open(sys.argv[2]))
ledger = [json.loads(l) for l in open(sys.argv[3]) if l.strip()]
assert run["tool"] == "spmdrun", run["tool"]
p = run["payload"]
meta = [e["args"] for e in trace["traceEvents"] if e.get("name") == "run_metadata"]
assert meta and p["trace_id"] and meta[0].get("trace_id") == p["trace_id"], (meta, p.get("trace_id"))
assert len(ledger) == 1 and ledger[0]["payload"]["trace_id"] == p["trace_id"], ledger
wall = p["wall_ns"]
spans = [e for e in trace["traceEvents"] if e.get("cat") == "lifecycle"]
names = {s["name"] for s in spans}
for phase in ("run", "compile", "execute", "setup", "team run", "verify"):
    assert phase in names, f"missing lifecycle slice {phase!r}: {sorted(names)}"
assert all(s["ph"] == "X" and s["dur"] >= 0 for s in spans), "lifecycle slice not a complete event"
tops = sum(s["dur"] * 1e3 for s in spans if s["args"].get("parent_id") == 1)
ratio = tops / wall
assert 0.95 <= ratio <= 1.05, f"phase sum / wall = {ratio:.3f}, want within 5%"
print(f"-- trace {p['trace_id']}: {len(spans)} lifecycle slices, phase-sum/wall {ratio:.3f}")
EOF
fi

echo "== sabotage must be caught =="
# Dropping a scheduled sync edge has to make spmdrun fail (sanitizer
# violation and/or divergence from the sequential oracle).
if go run ./cmd/spmdrun -kernel jacobi1d -p 4 -param N=64 -param T=4 \
    -timeout 60s -sanitize -sabotage 2 >/dev/null 2>&1; then
    echo "ERROR: sabotaged schedule went undetected" >&2
    exit 1
fi
echo "-- sabotaged jacobi1d detected (as required)"

echo "ALL CHECKS PASSED"
