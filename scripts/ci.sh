#!/usr/bin/env bash
# CI entry point. Everything here must pass on a machine with no network
# access: the workspace is hermetic (see CONTRIBUTING.md, "Hermetic
# builds") and this script is what enforces it.
set -euo pipefail
cd "$(dirname "$0")/.."

# Each `section` closes the previous one with its elapsed wall seconds
# (bash's SECONDS), so a slow gate shows up in the log by name.
section_name=""
section_start=0
section() {
    if [ -n "$section_name" ]; then
        echo "-- $section_name: $((SECONDS - section_start)) s"
    fi
    section_name="$1"
    section_start=$SECONDS
    echo "== $1 =="
}

section "guard: no registry dependencies in any manifest"
# Path-only dependencies are the policy. A registry dependency is any
# [*dependencies] entry that carries a version requirement instead of a
# `path`/`workspace` reference — catch both the member manifests and the
# [workspace.dependencies] table, plus the lockfile.
fail=0
while IFS= read -r manifest; do
    if awk '
        /^\[.*dependencies[^]]*\]/ { in_deps = 1; next }
        /^\[/                      { in_deps = 0 }
        in_deps && NF && $0 !~ /^#/ \
                && $0 !~ /path *=/ && $0 !~ /\.workspace *= *true/ \
                && $0 !~ /^\s*(features|optional|default-features)\b/ {
            print FILENAME ": " $0
            found = 1
        }
        END { exit !found }
    ' "$manifest"; then
        fail=1
    fi
done < <(git ls-files -co --exclude-standard '*Cargo.toml')
if grep -n 'source = "registry' Cargo.lock; then
    echo "Cargo.lock references a registry package"
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    echo "registry dependencies found — the workspace must stay hermetic" >&2
    exit 1
fi
echo "ok"

# Formatting is gated so every edit can be plain `cargo fmt` output.
# `--all` covers the root workspace; `perfbench/` is its own workspace
# and is not checked here.
section "format check"
cargo fmt --all --check
echo "ok"

section "build (release, offline)"
cargo build --release --offline

# `cargo test` never compiles `[[bench]]` targets and this script runs
# only three of them, so a change that breaks another bench, example or
# test target would otherwise go unseen. Type-check every target.
section "check every target (offline)"
cargo check --offline --workspace --all-targets

# The benchmark is its own Cargo workspace, so the build above does not
# compile it. Building it here makes a change to the library surface it
# calls (SiteSets, the renderers, the serve client) fail CI instead of
# the next benchmark run.
section "build benchmark (release, offline)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# The whole suite runs twice: once pinned to one thread and once with a
# 4-thread pool, so every default-configured Analyzer in every test
# exercises both the sequential and the parallel pipeline (results must
# be bit-identical — par_equiv checks that differentially, this checks
# nothing else regresses under either default).
section "tests (offline, MODREF_THREADS=1)"
MODREF_THREADS=1 cargo test -q --offline

section "tests (offline, MODREF_THREADS=4)"
MODREF_THREADS=4 cargo test -q --offline

# Third pass: fault injection armed. MODREF_FAULT seeds a deterministic
# fault pattern (panics/stalls/budget-exhaustions at solver checkpoints)
# in every guard that arms FaultPlan::from_env — the CLI does, the
# library's plain analyze path must not. Goldens strip the variable
# themselves, guarded suites pin their own plans, so a green run here
# proves (a) nothing hangs or crashes with faults in the environment and
# (b) fault arming is never implicit. Fixed seeds keep failures
# replayable.
for fault_seed in 20260806 7; do
    for t in 1 4; do
        section "tests (offline, MODREF_FAULT=$fault_seed, MODREF_THREADS=$t)"
        MODREF_FAULT=$fault_seed MODREF_THREADS=$t cargo test -q --offline
    done
done

# Drive the binary's degradation contract directly: a tiny op budget must
# degrade (exit 3, not a crash), and the same command unbudgeted must be
# byte-identical to the unguarded run even with MODREF_FAULT unset vs set
# on the clean path (the CLI only arms faults it is told about).
section "cli degradation contract"
MODREF="target/release/modref"
DEMO="examples/programs/demo.mp"
set +e
env -u MODREF_FAULT "$MODREF" analyze "$DEMO" --budget-ops 0 >/dev/null 2>ci_degraded.err
code=$?
set -e
if [ "$code" -ne 3 ]; then
    echo "expected exit 3 from a zero budget, got $code" >&2
    exit 1
fi
grep -q "analysis degraded" ci_degraded.err || {
    echo "degraded run must explain itself on stderr" >&2
    exit 1
}
rm -f ci_degraded.err
env -u MODREF_FAULT "$MODREF" analyze "$DEMO" > ci_plain.out
env -u MODREF_FAULT "$MODREF" analyze "$DEMO" --timeout-ms 60000 --budget-ops 100000000 > ci_guarded.out
cmp ci_plain.out ci_guarded.out || {
    echo "an untripped guard changed the output" >&2
    exit 1
}
rm -f ci_plain.out ci_guarded.out

# Traced pass: recording must be a pure observer (stdout byte-identical
# to the plain run) and the emitted file must be a valid Chrome trace
# that names the pipeline phases — `trace-check` is the binary's own
# validator, the grep pins the span set.
section "cli trace contract"
env -u MODREF_FAULT "$MODREF" analyze "$DEMO" > ci_plain.out
env -u MODREF_FAULT "$MODREF" analyze "$DEMO" --trace ci_trace.json --metrics \
    > ci_traced.out 2> ci_metrics.err
cmp ci_plain.out ci_traced.out || {
    echo "recording a trace changed the report" >&2
    exit 1
}
grep -q "analyze" ci_metrics.err || {
    echo "--metrics must print the span summary on stderr" >&2
    exit 1
}
env -u MODREF_FAULT "$MODREF" trace-check ci_trace.json > ci_tracecheck.out
grep -q "valid trace" ci_tracecheck.out || {
    echo "trace-check did not accept the emitted trace" >&2
    exit 1
}
for phase in analyze frontend local rmod gmod dmod modsets; do
    grep -q "$phase" ci_tracecheck.out || {
        echo "emitted trace is missing the $phase span" >&2
        exit 1
    }
done
rm -f ci_plain.out ci_traced.out ci_metrics.err ci_trace.json ci_tracecheck.out

# Incremental engine: the edit-script differential suites (bit-identity
# to from-scratch after every prefix) at both thread defaults, and the
# exhaustive ≤4-procedure enumeration — the sampling-free solver oracle.
# Both also run inside the full passes above; the explicit invocation
# keeps them from silently dropping out of the suite.
section "incremental differential suites (MODREF_THREADS=1 and 4)"
for t in 1 4; do
    MODREF_THREADS=$t cargo test -q --offline -p modref-incr
done
section "exhaustive small-world solver enumeration"
cargo test -q --offline -p modref-core --test exhaustive

# Set-representation differential wall: the bitset-level op equivalence
# suite, the full-pipeline dense≡hybrid enumeration inside `exhaustive`
# (runs above), and the binary end-to-end — every `--set-repr` value
# must produce a byte-identical report, and the default must be dense.
section "set-representation differential wall"
cargo test -q --offline -p modref-bitset --test repr_equiv
env -u MODREF_FAULT "$MODREF" analyze "$DEMO" > ci_repr_default.out
for repr in dense hybrid auto; do
    env -u MODREF_FAULT "$MODREF" analyze "$DEMO" --set-repr "$repr" > "ci_repr_$repr.out"
    cmp ci_repr_default.out "ci_repr_$repr.out" || {
        echo "--set-repr $repr changed the report" >&2
        exit 1
    }
done
rm -f ci_repr_default.out ci_repr_dense.out ci_repr_hybrid.out ci_repr_auto.out

# Incremental performance gate: a fresh incrscale run must show the
# amortized per-edit cost within 1.10x of a from-scratch re-analysis on
# every workload family (the engine's whole point is to win everywhere;
# see EXPERIMENTS.md E11). The JSON is regenerated from zero so stale
# rows from earlier builds can neither fail a healthy run nor mask a
# regression.
section "incremental bench regression gate"
rm -f target/modref-bench/BENCH_incrscale.json
cargo bench --bench incrscale --offline
cargo run --release --offline -p modref-bench --bin bench_gate -- \
    target/modref-bench/BENCH_incrscale.json 1.10

# Demand-query sublinearity gate: one MOD(site) point query must cost
# < 10% of the exhaustive solve's operation count (the paper's own cost
# units, deterministic) on every workload — see docs/QUERY.md and
# EXPERIMENTS.md E12. Timed rows ride along for the human-readable
# speedup but only the recorded op counts are gated.
section "demand-query sublinearity gate"
rm -f target/modref-bench/BENCH_demand.json
cargo bench --bench demand --offline
cargo run --release --offline -p modref-bench --bin bench_gate -- \
    --pair query_site_ops:exhaustive_ops \
    target/modref-bench/BENCH_demand.json 0.10

# Set-representation auto gate: across the universe × density sweep, the
# representation `--set-repr auto` resolves must never cost more than
# 1.10x dense on any cell (the heuristic may only pick winners; see
# docs/SETREPR.md and the checked-in BENCH_setrepr.json).
section "set-representation bench gate"
rm -f target/modref-bench/BENCH_setrepr.json
cargo bench --bench setrepr --offline
cargo run --release --offline -p modref-bench --bin bench_gate -- \
    --pair auto:dense \
    target/modref-bench/BENCH_setrepr.json 1.10

# The --edits mode end-to-end: a script applies, the report reflects the
# edited program, and a bad script fails with the offending line.
section "cli --edits contract"
printf 'set-local bump mod=count use=total\n' > ci_session.edits
env -u MODREF_FAULT "$MODREF" analyze "$DEMO" --edits ci_session.edits > ci_edits.out
grep -q "after 1 edits" ci_edits.out || {
    echo "--edits report must name the applied edit count" >&2
    exit 1
}
printf 'set-local nosuchproc mod=count\n' > ci_session.edits
set +e
env -u MODREF_FAULT "$MODREF" analyze "$DEMO" --edits ci_session.edits 2> ci_edits.err
code=$?
set -e
if [ "$code" -ne 1 ]; then
    echo "expected exit 1 from a bad edit script, got $code" >&2
    exit 1
fi
grep -q "script line 1" ci_edits.err || {
    echo "a bad edit script must name the offending line" >&2
    exit 1
}
# Structural edits carry the alias relation across by insertion and
# delete-and-rederive rather than solving it again, so an edit followed
# by its inverse must print the same bytes as a plain run. The appended
# `bump(total, total)` (site 4, after `deep` in `helper` and the three
# calls in `main`) creates ⟨x,amount⟩, ⟨x,total⟩ and ⟨amount,total⟩ in
# `bump`; the rebind swaps `bump`'s first actual at site 1 and back.
env -u MODREF_FAULT "$MODREF" analyze "$DEMO" --json > ci_plain.json
for edits in 'add-call main bump args=total,total\nremove-call 4\n' \
             'rebind 1 0 count\nrebind 1 0 total\n'; do
    printf "$edits" > ci_session.edits
    env -u MODREF_FAULT "$MODREF" analyze "$DEMO" --edits ci_session.edits --json > ci_edits.json
    cmp ci_plain.json ci_edits.json || {
        echo "--edits with an edit and its inverse must match plain analyze --json:" >&2
        printf "$edits" >&2
        exit 1
    }
done
rm -f ci_session.edits ci_edits.out ci_edits.err ci_plain.json ci_edits.json

# Served mode end-to-end: boot the daemon on an OS-assigned port, drive
# a full session lifecycle over the wire, and require the served query
# report to be byte-identical to the batch `analyze --json` run — the
# same program must answer the same regardless of transport.
section "serve contract"
env -u MODREF_FAULT "$MODREF" serve --addr 127.0.0.1:0 2> ci_serve.addr &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
    grep -q "listening on" ci_serve.addr 2>/dev/null && break
    sleep 0.1
done
serve_addr=$(sed -n 's/^modref-serve listening on //p' ci_serve.addr | head -1)
if [ -z "$serve_addr" ]; then
    echo "serve never announced its listen address" >&2
    exit 1
fi
printf 'open s examples/programs/demo.mp\nquery s all\nstats\nclose s\n' > ci_drive.txt
env -u MODREF_FAULT "$MODREF" client --addr "$serve_addr" ci_drive.txt \
    > ci_served.out 2> ci_client.err
env -u MODREF_FAULT "$MODREF" analyze "$DEMO" --json > ci_batch.out
cmp ci_served.out ci_batch.out || {
    echo "served query report differs from the batch analyze report" >&2
    exit 1
}
grep -q "sessions=" ci_client.err || {
    echo "stats must report the live session count" >&2
    exit 1
}
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
trap - EXIT
rm -f ci_serve.addr ci_drive.txt ci_served.out ci_client.err ci_batch.out

# The concurrency soak wall, explicitly at both thread defaults: 8
# clients over 16 sessions interleaving open/edit/query, every response
# bit-identical to a from-scratch analysis of the same edited program.
# Both also run inside the full passes above; the explicit invocation
# keeps the wall from silently dropping out of the suite.
section "serve soak (MODREF_THREADS=1 and 4)"
for t in 1 4; do
    MODREF_THREADS=$t cargo test -q --offline -p modref-serve --test soak
done

# The kill-and-restart chaos wall (cargo side): seeded MODREF_CRASH
# aborts mid-edit-stream, restart recovery, torn-tail truncation, the
# late-booting client, and SIGTERM drain — at both thread defaults.
section "serve crash wall (MODREF_THREADS=1 and 4)"
for t in 1 4; do
    MODREF_THREADS=$t cargo test -q --offline -p modref-cli --test chaos
done

# And the same contract end-to-end against the release binary: crash the
# daemon at a seeded point while a client streams edits, restart it on
# the same --state-dir, and require the recovered session's `query all`
# to be byte-identical to `analyze --json --edits` over exactly the
# durable prefix of the stream. Two crash specs × both thread defaults:
# an abort *before* an append (the record is lost) and an abort *mid*
# write (a torn tail recovery must truncate). Record 1 is the open
# snapshot, so edit k is record k+1.
section "serve chaos (kill, restart, recover)"
printf 'set-local deep mod=total,count use=total\nadd-call main bump args=total,3\nremove-call 0\n' > ci_chaos.edits
printf 'open s examples/programs/demo.mp\nedit s ci_chaos.edits\n' > ci_chaos_drive.txt
printf 'query s all\n' > ci_chaos_query.txt
for t in 1 4; do
    for chaos_case in "serve.journal.append:3 1" "serve.journal.torn:4 2"; do
        spec=${chaos_case% *}
        durable=${chaos_case#* }
        echo "--  $spec (MODREF_THREADS=$t): expect $durable durable edits"
        rm -rf ci_chaos_state
        rm -f ci_chaos.addr
        env -u MODREF_FAULT MODREF_CRASH="$spec" MODREF_THREADS=$t \
            "$MODREF" serve --addr 127.0.0.1:0 --state-dir ci_chaos_state 2> ci_chaos.addr &
        chaos_pid=$!
        trap 'kill "$chaos_pid" 2>/dev/null || true' EXIT
        for _ in $(seq 1 100); do
            grep -q "listening on" ci_chaos.addr 2>/dev/null && break
            sleep 0.1
        done
        chaos_addr=$(sed -n 's/^modref-serve listening on //p' ci_chaos.addr | head -1)
        if [ -z "$chaos_addr" ]; then
            echo "chaos serve never announced its listen address" >&2
            exit 1
        fi
        set +e
        env -u MODREF_FAULT "$MODREF" client --addr "$chaos_addr" ci_chaos_drive.txt >/dev/null 2>&1
        client_code=$?
        set -e
        if [ "$client_code" -eq 0 ]; then
            echo "client survived the $spec crash — the daemon never died" >&2
            exit 1
        fi
        if wait "$chaos_pid" 2>/dev/null; then
            echo "daemon exited cleanly through its own $spec crash point" >&2
            exit 1
        fi
        trap - EXIT

        # Restart on the surviving state dir and compare the recovered
        # session against a from-scratch run over the durable prefix.
        rm -f ci_chaos.addr
        env -u MODREF_FAULT MODREF_THREADS=$t \
            "$MODREF" serve --addr 127.0.0.1:0 --state-dir ci_chaos_state 2> ci_chaos.addr &
        chaos_pid=$!
        trap 'kill "$chaos_pid" 2>/dev/null || true' EXIT
        for _ in $(seq 1 100); do
            grep -q "listening on" ci_chaos.addr 2>/dev/null && break
            sleep 0.1
        done
        chaos_addr=$(sed -n 's/^modref-serve listening on //p' ci_chaos.addr | head -1)
        env -u MODREF_FAULT "$MODREF" client --addr "$chaos_addr" ci_chaos_query.txt \
            > ci_chaos_served.out
        head -n "$durable" ci_chaos.edits > ci_chaos_prefix.edits
        env -u MODREF_FAULT "$MODREF" analyze "$DEMO" --json --edits ci_chaos_prefix.edits \
            > ci_chaos_batch.out
        cmp ci_chaos_served.out ci_chaos_batch.out || {
            echo "$spec: recovered report is not the $durable-edit durable prefix" >&2
            exit 1
        }
        kill "$chaos_pid"
        wait "$chaos_pid" 2>/dev/null || true
        trap - EXIT
    done
done
rm -rf ci_chaos_state
rm -f ci_chaos.edits ci_chaos_drive.txt ci_chaos_query.txt ci_chaos.addr \
    ci_chaos_prefix.edits ci_chaos_served.out ci_chaos_batch.out

echo "-- $section_name: $((SECONDS - section_start)) s"
echo "CI green in $SECONDS s"
