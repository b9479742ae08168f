#!/usr/bin/env bash
# Tier-1 verification gate. Everything runs offline (see docs/OFFLINE.md).
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# CI must not write bench files into the checkout: the only bench
# record is BENCH_scale.json, which the scale sweep below leaves alone
# in --quick mode, and the final gate compares checksums (a new or
# rewritten file fails it).
bench_sums() { sha256sum BENCH_*.json; }
bench_sums > "$tmpdir/bench.sha256"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

# The workspace run includes every differential suite, each with fixed
# seeds: cafa-hb's demand_differential (lazy queries vs the naive
# reference) and clocks_differential (clocks vs DFS); cafa-core's
# partition_differential (islanded vs monolithic); cafa-predict's
# predictive_differential (predictive ⊆ HB); and cafa-trace's
# decode_equivalence (every binary decode path and chunking).
echo "==> cargo test"
cargo test --workspace -q

echo "==> scale sweep smoke (demand engine, 100k tier)"
./target/release/analysis_scaling --scale --quick > /dev/null

echo "==> fleet determinism (table1 at 1 vs 4 workers)"
out1="$(CAFA_THREADS=1 ./target/release/table1)"
out4="$(CAFA_THREADS=4 ./target/release/table1)"
if [ "$out1" != "$out4" ]; then
    echo "FAIL: table1 output differs between 1 and 4 fleet workers" >&2
    exit 1
fi

echo "==> replay validation sweep vs pinned confirmed-counts"
./target/release/cafa validate --format counts > /tmp/validate_counts.txt
if ! cmp -s /tmp/validate_counts.txt tests/golden/validate_counts.txt; then
    echo "FAIL: cafa validate counts differ from tests/golden/validate_counts.txt" >&2
    diff tests/golden/validate_counts.txt /tmp/validate_counts.txt >&2 || true
    exit 1
fi
rm -f /tmp/validate_counts.txt

echo "==> generated corpus gate (gen --seed 7 --count 50 through analyze vs pinned counts)"
./target/release/cafa gen --seed 7 --count 50 --format counts > /tmp/gen_counts.txt
if ! cmp -s /tmp/gen_counts.txt tests/golden/gen_counts.txt; then
    echo "FAIL: cafa gen counts differ from tests/golden/gen_counts.txt" >&2
    diff tests/golden/gen_counts.txt /tmp/gen_counts.txt >&2 || true
    exit 1
fi
for threads in 1 2 8; do
    ./target/release/cafa gen --seed 7 --count 50 --format counts --threads "$threads" \
        > /tmp/gen_counts.t$threads.txt
    if ! cmp -s /tmp/gen_counts.t$threads.txt tests/golden/gen_counts.txt; then
        echo "FAIL: cafa gen counts differ at --threads $threads" >&2
        exit 1
    fi
done
rm -f /tmp/gen_counts.txt /tmp/gen_counts.t*.txt

echo "==> predictive corpus gate (gen --detector both, replay-adjudicated, vs pinned counts)"
./target/release/cafa gen --seed 7 --count 50 --detector both --format counts \
    > /tmp/predict_counts.txt
if ! cmp -s /tmp/predict_counts.txt tests/golden/predict_counts.txt; then
    echo "FAIL: cafa gen --detector both counts differ from tests/golden/predict_counts.txt" >&2
    diff tests/golden/predict_counts.txt /tmp/predict_counts.txt >&2 || true
    exit 1
fi
for threads in 1 2 8; do
    ./target/release/cafa gen --seed 7 --count 50 --detector both --format counts \
        --threads "$threads" > /tmp/predict_counts.t$threads.txt
    if ! cmp -s /tmp/predict_counts.t$threads.txt tests/golden/predict_counts.txt; then
        echo "FAIL: cafa gen --detector both counts differ at --threads $threads" >&2
        exit 1
    fi
done
rm -f /tmp/predict_counts.txt /tmp/predict_counts.t*.txt

echo "==> table1 --detector both vs pinned per-backend table (HB column, extra = 0)"
./target/release/table1 --detector both > "$tmpdir/table1_both.txt"
if ! cmp -s "$tmpdir/table1_both.txt" tests/golden/table1_both.txt; then
    echo "FAIL: table1 --detector both differs from tests/golden/table1_both.txt" >&2
    diff tests/golden/table1_both.txt "$tmpdir/table1_both.txt" >&2 || true
    exit 1
fi

echo "==> race confirmation vs pinned table (directed vs random, 0 benign fired)"
./target/release/confirm > "$tmpdir/confirm.txt"
if ! cmp -s "$tmpdir/confirm.txt" tests/golden/confirm.txt; then
    echo "FAIL: confirm output differs from tests/golden/confirm.txt" >&2
    diff tests/golden/confirm.txt "$tmpdir/confirm.txt" >&2 || true
    exit 1
fi

echo "==> streaming chunk invariance + thread determinism (all apps)"
for app in connectbot mytracks zxing todolist browser firefox vlc fbreader camera music; do
    trace="$tmpdir/$app.bin"
    ./target/release/cafa record "$app" --format binary --out "$trace" > /dev/null
    ./target/release/cafa analyze "$trace" --format json > "$tmpdir/$app.batch.json"
    if ! cmp -s "$tmpdir/$app.batch.json" "tests/golden/reports/$app.json"; then
        echo "FAIL: $app batch report differs from pinned golden report" >&2
        exit 1
    fi
    # The default backend and an explicit --detector hb are the same
    # code path: both must stay bit-identical to the pinned goldens.
    ./target/release/cafa analyze "$trace" --format json --detector hb > "$tmpdir/$app.hb.json"
    if ! cmp -s "$tmpdir/$app.hb.json" "tests/golden/reports/$app.json"; then
        echo "FAIL: $app --detector hb report differs from pinned golden report" >&2
        exit 1
    fi
    # --follow tails the file as it grows, then runs the batch pipeline
    # on the decoded trace: it must reproduce the golden report too.
    ./target/release/cafa analyze "$trace" --follow --format json > "$tmpdir/$app.follow.json"
    if ! cmp -s "$tmpdir/$app.follow.json" "tests/golden/reports/$app.json"; then
        echo "FAIL: $app --follow report differs from pinned golden report" >&2
        exit 1
    fi
    for threads in 1 2 8; do
        ./target/release/cafa analyze "$trace" --format json --threads "$threads" \
            > "$tmpdir/$app.t$threads.json"
        if ! cmp -s "$tmpdir/$app.batch.json" "$tmpdir/$app.t$threads.json"; then
            echo "FAIL: $app analyzed with --threads $threads differs from default" >&2
            exit 1
        fi
        # The monolithic path must reproduce every golden report
        # byte-for-byte, at every thread count.
        ./target/release/cafa analyze "$trace" --format json --partition off \
            --threads "$threads" > "$tmpdir/$app.off.t$threads.json"
        if ! cmp -s "$tmpdir/$app.off.t$threads.json" "tests/golden/reports/$app.json"; then
            echo "FAIL: $app under --partition off differs from golden at --threads $threads" >&2
            exit 1
        fi
        # Island-partitioned analysis must also reproduce every golden
        # report byte-for-byte, at every thread count and in both the
        # auto-policy and forced configurations.
        for mode in auto force; do
            ./target/release/cafa analyze "$trace" --format json --threads "$threads" \
                --partition "$mode" > "$tmpdir/$app.part.$mode.t$threads.json"
            if ! cmp -s "$tmpdir/$app.batch.json" "$tmpdir/$app.part.$mode.t$threads.json"; then
                echo "FAIL: $app under --partition $mode differs at --threads $threads" >&2
                exit 1
            fi
        done
    done
    for chunk in 1 13 4096; do
        ./target/release/cafa serve --chunk "$chunk" < "$trace" > "$tmpdir/$app.stream.json"
        if ! cmp -s "$tmpdir/$app.batch.json" "$tmpdir/$app.stream.json"; then
            echo "FAIL: $app streamed at chunk $chunk differs from batch analyze" >&2
            exit 1
        fi
    done
done

# The JSON report of trace $1 in the mode the remaining args name:
# `serve [flags]` streams the trace through stdin serve; anything else
# is passed to `analyze --format json`.
report_json() { # args: trace, then analyze flags or `serve` + serve flags
    local trace="$1"
    shift
    if [ "${1:-}" = serve ]; then
        shift
        ./target/release/cafa serve "$@" < "$trace"
    else
        ./target/release/cafa analyze "$trace" --format json "$@"
    fi
}

echo "==> predictive report gate (10 apps + gen:7:0..4 under --detector both vs pinned reports)"
# Pins every both-mode counter (rounds, derived_edges, gated,
# external_edges, pairs_checked, filtered) and every predictive race,
# at every thread count, under --partition off and force, and under
# --follow.
for i in 0 1 2 3 4; do
    ./target/release/cafa record "gen:7:$i" --seed 7 --format binary \
        --out "$tmpdir/gen7_$i.bin" > /dev/null
done
predictive_reports() { # args: extra analyze flags
    for app in connectbot mytracks zxing todolist browser firefox vlc fbreader camera music; do
        echo "== $app"
        report_json "$tmpdir/$app.bin" "$@" --detector both
    done
    for i in 0 1 2 3 4; do
        echo "== gen:7:$i"
        report_json "$tmpdir/gen7_$i.bin" "$@" --detector both
    done
}
for mode in "--threads 1" "--threads 2" "--threads 8" "--partition off" "--partition force" \
    "--follow"; do
    # $mode is a list of flags: split it into words on purpose.
    predictive_reports $mode > "$tmpdir/predictive.txt"
    if ! cmp -s "$tmpdir/predictive.txt" tests/golden/predictive_reports.txt; then
        echo "FAIL: both-mode reports differ from tests/golden/predictive_reports.txt under $mode" >&2
        diff tests/golden/predictive_reports.txt "$tmpdir/predictive.txt" >&2 || true
        exit 1
    fi
done

echo "==> both-mode island gate (scale:42:20000 under --detector both: off/auto/force at --threads 1/2/8)"
# One island holds nearly all of each catalog app; this trace has many,
# so each batch packs several and the predictive section (gated
# included) must merge back to the monolithic bytes.
./target/release/cafa record scale:42:20000 --format binary --out "$tmpdir/scale42_20k.bin" > /dev/null
./target/release/cafa analyze "$tmpdir/scale42_20k.bin" --format json --detector both \
    --partition off > "$tmpdir/scale42_20k.off.json"
for mode in off auto force; do
    for threads in 1 2 8; do
        ./target/release/cafa analyze "$tmpdir/scale42_20k.bin" --format json --detector both \
            --partition "$mode" --threads "$threads" > "$tmpdir/scale42_20k.json"
        if ! cmp -s "$tmpdir/scale42_20k.off.json" "$tmpdir/scale42_20k.json"; then
            echo "FAIL: scale:42:20000 both-mode report under --partition $mode differs at --threads $threads" >&2
            exit 1
        fi
    done
done

echo "==> island partition gate (scale corpus: auto/force vs monolithic at --threads 1/2/8)"
./target/release/cafa record scale:42:100000 --format binary --out "$tmpdir/scale42.bin" > /dev/null
./target/release/cafa analyze "$tmpdir/scale42.bin" --format json --partition off \
    > "$tmpdir/scale42.off.json"
for threads in 1 2 8; do
    for mode in auto force; do
        ./target/release/cafa analyze "$tmpdir/scale42.bin" --format json \
            --partition "$mode" --threads "$threads" > "$tmpdir/scale42.part.json"
        if ! cmp -s "$tmpdir/scale42.off.json" "$tmpdir/scale42.part.json"; then
            echo "FAIL: scale corpus --partition $mode differs at --threads $threads" >&2
            exit 1
        fi
    done
done
# Pin the corpus-level counts so a partition bug that shifts both paths
# in lockstep still trips the gate.
grep -E '"events"|"candidate_vars"|"pairs_checked"' "$tmpdir/scale42.off.json" \
    | tr -d ' ' > "$tmpdir/scale42.counts.txt"
if ! cmp -s "$tmpdir/scale42.counts.txt" tests/golden/scale42_counts.txt; then
    echo "FAIL: scale corpus counts differ from tests/golden/scale42_counts.txt" >&2
    diff tests/golden/scale42_counts.txt "$tmpdir/scale42.counts.txt" >&2 || true
    exit 1
fi

echo "==> conventional baseline gate (10 apps + scale corpus under --model conventional vs pinned reports)"
# The conventional model reads the shared base through its own edge
# kinds; pin its reports, and require every partition mode and thread
# count to reproduce them byte-for-byte.
conventional_app_reports() { # args: analyze flags, or `serve` + serve flags
    for app in connectbot mytracks zxing todolist browser firefox vlc fbreader camera music; do
        echo "== $app"
        report_json "$tmpdir/$app.bin" "$@" --model conventional
    done
}
conventional_reports() { # args: extra analyze flags
    conventional_app_reports "$@"
    echo "== scale:42:100000"
    ./target/release/cafa analyze "$tmpdir/scale42.bin" --model conventional "$@" | sed -n 1p
}
conventional_reports > "$tmpdir/conventional.txt"
if ! cmp -s "$tmpdir/conventional.txt" tests/golden/conventional_reports.txt; then
    echo "FAIL: conventional reports differ from tests/golden/conventional_reports.txt" >&2
    diff tests/golden/conventional_reports.txt "$tmpdir/conventional.txt" >&2 || true
    exit 1
fi
for mode in off auto force; do
    for threads in 1 2 8; do
        conventional_reports --partition "$mode" --threads "$threads" \
            > "$tmpdir/conventional.$mode.t$threads.txt"
        if ! cmp -s "$tmpdir/conventional.$mode.t$threads.txt" tests/golden/conventional_reports.txt; then
            echo "FAIL: conventional reports differ under --partition $mode --threads $threads" >&2
            exit 1
        fi
    done
done
# --follow and stdin serve print JSON only: they must reproduce the ten
# app reports (the golden up to its text-mode scale line).
sed '/^== scale:42:100000$/,$d' tests/golden/conventional_reports.txt > "$tmpdir/conventional.apps.txt"
for mode in "--follow" "serve --chunk 13"; do
    # $mode is a list of flags: split it into words on purpose.
    conventional_app_reports $mode > "$tmpdir/conventional.mode.txt"
    if ! cmp -s "$tmpdir/conventional.mode.txt" "$tmpdir/conventional.apps.txt"; then
        echo "FAIL: conventional app reports differ under $mode" >&2
        diff "$tmpdir/conventional.apps.txt" "$tmpdir/conventional.mode.txt" >&2 || true
        exit 1
    fi
done

echo "==> fleet ingest server gate (10 concurrent sessions at --threads 1/2/8)"
apps=(connectbot mytracks zxing todolist browser firefox vlc fbreader camera music)
chunks=(7 64 389 1024 4096 7 64 389 1024 4096)
servedir="$tmpdir/serve-state"
start_serve() { # args: extra serve flags; sets $serve_pid and $addr
    : > "$tmpdir/serve.log"
    ./target/release/cafa serve --listen 127.0.0.1:0 "$@" 2> "$tmpdir/serve.log" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 200); do
        addr="$(sed -n 's/^listening on //p' "$tmpdir/serve.log" | head -n1)"
        [ -n "$addr" ] && break
        sleep 0.05
    done
    if [ -z "$addr" ]; then
        echo "FAIL: cafa serve did not announce its address" >&2
        cat "$tmpdir/serve.log" >&2
        exit 1
    fi
}
for threads in 1 2 8; do
    rm -rf "$servedir"
    start_serve --threads "$threads" --state-dir "$servedir"
    pids=()
    for i in "${!apps[@]}"; do
        app="${apps[$i]}"
        ./target/release/cafa push "$tmpdir/$app.bin" --connect "$addr" \
            --session "$app" --chunk "${chunks[$i]}" \
            > "$tmpdir/$app.push.json" 2> /dev/null &
        pids+=($!)
    done
    for pid in "${pids[@]}"; do
        if ! wait "$pid"; then
            echo "FAIL: cafa push failed against serve --threads $threads" >&2
            exit 1
        fi
    done
    for app in "${apps[@]}"; do
        if ! cmp -s "$tmpdir/$app.push.json" "tests/golden/reports/$app.json"; then
            echo "FAIL: $app served report differs from golden at --threads $threads" >&2
            exit 1
        fi
    done
    kill "$serve_pid" 2> /dev/null || true
    wait "$serve_pid" 2> /dev/null || true
done

echo "==> fleet ingest server gate (kill mid-stream, restart, resume byte-identically)"
rm -rf "$servedir"
start_serve --threads 2 --state-dir "$servedir"
app=camera
size=$(stat -c%s "$tmpdir/$app.bin")
cut=$((size / 2))
head -c "$cut" "$tmpdir/$app.bin" > "$tmpdir/$app.half.bin"
# A push that ends mid-trace detaches cleanly (exit 0, state journaled).
if ! ./target/release/cafa push "$tmpdir/$app.half.bin" --connect "$addr" \
        --session "$app" > /dev/null 2> "$tmpdir/push.log"; then
    echo "FAIL: mid-trace push did not detach cleanly" >&2
    cat "$tmpdir/push.log" >&2
    exit 1
fi
grep -q "detached at byte $cut" "$tmpdir/push.log" || {
    echo "FAIL: detach did not report the journaled offset" >&2
    cat "$tmpdir/push.log" >&2
    exit 1
}
kill -TERM "$serve_pid"
wait "$serve_pid" 2> /dev/null || true
start_serve --threads 2 --state-dir "$servedir"
if ! ./target/release/cafa push "$tmpdir/$app.bin" --connect "$addr" \
        --session "$app" > "$tmpdir/$app.resumed.json" 2> "$tmpdir/push.log"; then
    echo "FAIL: resumed push failed after server restart" >&2
    cat "$tmpdir/push.log" >&2
    exit 1
fi
grep -q "resumed at byte $cut" "$tmpdir/push.log" || {
    echo "FAIL: restarted server did not resume from the journaled offset" >&2
    cat "$tmpdir/push.log" >&2
    exit 1
}
if ! cmp -s "$tmpdir/$app.resumed.json" "tests/golden/reports/$app.json"; then
    echo "FAIL: $app report after kill+restart differs from golden" >&2
    exit 1
fi
kill "$serve_pid" 2> /dev/null || true
wait "$serve_pid" 2> /dev/null || true

echo "==> bench files in the checkout unchanged by this run"
if ! bench_sums | cmp -s - "$tmpdir/bench.sha256"; then
    echo "FAIL: CI wrote BENCH_*.json files into the checkout" >&2
    bench_sums | diff "$tmpdir/bench.sha256" - >&2 || true
    exit 1
fi

echo "CI green."
