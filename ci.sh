#!/usr/bin/env bash
# Tier-1 verification gate. Everything runs offline (see docs/OFFLINE.md).
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"
root="$(pwd)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

# CI must not write bench files into the checkout: bench binaries that
# write BENCH_*.json run from $tmpdir, and the final gate compares
# checksums (a new or rewritten file fails it).
bench_sums() { sha256sum BENCH_*.json; }
bench_sums > "$tmpdir/bench.sha256"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> oracle-vs-DFS differential suite (fixed-seed proptest)"
cargo test -p cafa-hb --test oracle_differential -q

echo "==> demand engine differential suite (lazy queries vs naive reference)"
cargo test -p cafa-hb --test demand_differential -q

echo "==> vector-clock differential suite (clocks vs DFS, rule-free configs)"
cargo test -p cafa-hb --test clocks_differential -q

echo "==> partition differential suite (islanded vs monolithic, byte-identical)"
cargo test -p cafa-core --test partition_differential -q

echo "==> predictive differential suite (predictive ⊆ HB, byte-stable, hb section untouched)"
cargo test -p cafa-predict --test predictive_differential -q

echo "==> decode equivalence suite (read_binary vs from_binary_slice vs StreamDecoder chunkings)"
cargo test -p cafa-trace --test decode_equivalence -q

echo "==> scale sweep smoke (demand engine, 100k tier)"
./target/release/analysis_scaling --scale --quick > /dev/null

echo "==> fleet determinism (table1 at 1 vs 4 workers)"
out1="$(CAFA_FLEET_THREADS=1 ./target/release/table1)"
out4="$(CAFA_FLEET_THREADS=4 ./target/release/table1)"
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

echo "==> predictive bench (extras/confirmed/FP/overhead, written to a temp dir)"
(cd "$tmpdir" && "$root/target/release/analysis_scaling" --predict > /dev/null)

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
