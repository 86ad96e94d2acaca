#!/usr/bin/env bash
# Tier-1 CI gate: release build, full test suite, smoke campaign.
#
# The smoke campaign runs every kernel under every communication model at
# `test` scale through the parallel harness and checks that a fresh JSON
# artifact lands with one row per (kernel, model) pair.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
cargo test -q

# Lint gate: the workspace must be clippy-clean (all targets — lib,
# bins, tests, examples) with warnings promoted to errors.
cargo clippy --workspace --all-targets -- -D warnings

# Doc gate: rustdoc must resolve every intra-doc link, so a deleted
# item cannot leave a link to it behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Timing-regression gate: the golden-stats digests pin the simulated
# timing of every (kernel × model) test-scale job. Already part of the
# suite above, but run by name so a digest mismatch fails CI loudly and
# in isolation (re-record with GOLDEN_RECORD=1 only for intentional
# timing changes, alongside a SIM_VERSION bump).
cargo test -q -p dmdp-core --test golden_stats

# Full-scale row identity: the golden digests pin Test scale only. lbm
# has the longest DRAM latencies, and bzip2 and perl recover the most,
# so their Full-scale rows exercise the scheduler's long-latency and
# squash paths. The rows must equal the benchmark's reference rows
# (read here, never written).
full_out=bench-results/ci-full-rows.json
rm -f "$full_out"
cargo run --release -q -p dmdp-bench --bin dmdp -- \
    campaign --name ci-full-rows --scale full --model all \
    --kernel lbm --kernel bzip2 --kernel perl \
    --jobs "$(nproc)" --force --quiet --out "$full_out"
full_kernels='["lbm", "bzip2", "perl"]'
campaign_full_rows() {
    jq -S '[.jobs[] | {workload, model, cycles, retired_insns, ipc}]
           | sort_by(.workload, .model)' "$full_out"
}
reference_full_rows() {
    jq -S --argjson ks "$full_kernels" '
        [.full[] | {workload: .[1], model: .[2], cycles: .[3],
                    retired_insns: .[4], ipc: .[5]}
                 | select(.workload as $w | $ks | index($w))]
        | sort_by(.workload, .model)' perfbench/reference.json
}
jq -e '.jobs | length == 12' "$full_out" >/dev/null \
    || { echo "ci: FAIL: Full-scale row campaign is missing rows"; exit 1; }
diff <(reference_full_rows) <(campaign_full_rows) \
    || { echo "ci: FAIL: Full-scale rows differ from perfbench/reference.json;" \
              "an intentional timing change regenerates the reference with" \
              "\`python3 perfbench/run.py --regen-reference\` (a benchmark change)"; exit 1; }

# The smoke runs with --force, without a store: the default store under
# bench-results/ outlives the artifact removed here, and the timing gate
# below must time a cold run.
out=bench-results/ci-smoke.json
rm -f "$out"
smoke_start=$(date +%s.%N)
cargo run --release -p dmdp-bench --bin dmdp -- \
    campaign --name ci-smoke --scale test --model all \
    --jobs "$(nproc)" --force --out "$out" --quiet
smoke_end=$(date +%s.%N)
test -s "$out"

# Host-throughput smoke: the test-scale campaign must not run more than
# 3x slower than the wall time recorded by the last PR-3 bench record.
# A coarse gate — it only catches order-of-magnitude regressions (an
# accidental debug-assert hot path, a reintroduced per-cycle allocation)
# without flaking on loaded CI boxes.
if [ -s BENCH_PR3.json ]; then
    smoke_s=$(awk -v a="$smoke_start" -v b="$smoke_end" 'BEGIN { printf "%.3f", b - a }')
    ref_s=$(jq -r '.[-1].campaign_test_scale_wall_s' BENCH_PR3.json)
    if [ "$ref_s" != "null" ] && [ -n "$ref_s" ]; then
        awk -v cur="$smoke_s" -v ref="$ref_s" 'BEGIN {
            if (cur > 3 * ref) {
                printf "ci: FAIL: smoke campaign took %.3fs, >3x the recorded %.3fs\n", cur, ref
                exit 1
            }
            printf "ci: smoke campaign %.3fs (reference %.3fs, limit 3x)\n", cur, ref
        }'
    fi
fi

# Probe smoke: a traced + sampled test-scale run must emit non-empty,
# well-formed JSON artifacts. (That probes leave simulated timing
# untouched is pinned by the golden_stats probed test above.)
trace=bench-results/ci-trace.jsonl
samples=bench-results/ci-samples.json
rm -f "$trace" "$samples"
cargo run --release -q -p dmdp-bench --bin dmdp -- \
    run --workload gcc --scale test --model dmdp \
    --trace "$trace" --sample-every 200 --sample-out "$samples" >/dev/null
test -s "$trace"
test -s "$samples"
jq -es 'length > 0 and all(has("seq") and has("kind") and has("rename"))' \
    "$trace" >/dev/null
jq -e 'type == "array" and length > 0 and all(has("cycle") and has("ipc"))' \
    "$samples" >/dev/null

# `dmdp report` must render any campaign artifact, the smoke one included.
cargo run --release -q -p dmdp-bench --bin dmdp -- report "$out" \
    | grep -q "IPC by workload"

# Every paper table and figure renders from one Test-scale campaign over
# all kernels, all models and the variants the figures read.
fig_out=bench-results/ci-figures.json
fig_variants="main= w4=width:4 rob512=rob:512,prf:640 prf160=prf:160 rmo=rmo sb32=sb:32
    sb64=sb:64 balanced=balanced nosilent=nosilent"
rm -f "$fig_out"
cargo run --release -q -p dmdp-bench --bin dmdp -- \
    campaign --name ci-figures --scale test --model all \
    $(printf -- '--variant %s ' $fig_variants) \
    --jobs "$(nproc)" --force --quiet --out "$fig_out"
figures=$(cargo run --release -q -p dmdp-bench --bin dmdp -- report "$fig_out" --figure all) \
    || { echo "ci: FAIL: dmdp report --figure all failed"; exit 1; }
for id in fig02_load_distribution fig03_delayed_vs_bypassing fig05_lowconf_breakdown \
        fig12_speedup tab04_load_latency tab05_lowconf_latency tab06_mpki \
        tab07_reexec_stalls fig14_store_buffer fig15_edp alt_issue_width alt_rob_size \
        alt_rmo alt_regfile_pressure ablation_confidence ablation_silent_store; do
    grep -q "^=== $id: " <<<"$figures" \
        || { echo "ci: FAIL: figure $id missing from dmdp report --figure all"; exit 1; }
done

# Sampled-simulation smoke: profile + cluster + sampled run of one
# kernel at test scale next to its full-detail run. The error table
# must be well-formed and every model's |sampled − full| IPC error must
# stay within 2%. (mcf at these knobs sits under 0.2% — the 2% gate is
# the acceptance bound, not the expectation.)
samp_full=bench-results/ci-sampled-full.json
samp_est=bench-results/ci-sampled.json
rm -f "$samp_full" "$samp_est"
cargo run --release -q -p dmdp-bench --bin dmdp -- \
    campaign --name ci-sampled-full --scale test --model all \
    --kernel mcf --force --quiet --out "$samp_full"
cargo run --release -q -p dmdp-bench --bin dmdp -- \
    campaign --name ci-sampled --scale test --model all \
    --kernel mcf --sampled --interval-insns 1000 --warmup-intervals 2 \
    --force --quiet --out "$samp_est"
cargo run --release -q -p dmdp-bench --bin dmdp -- \
    report "$samp_est" --error-vs "$samp_full" --json \
    | jq -e '
        .type == "sampled_error"
        and .rows_compared == 4
        and (.rows | length == 4)
        and (.rows | all(has("workload") and has("model")
                         and has("sampled_ipc") and has("full_ipc")
                         and has("error_pct")))
        and ([.rows[].error_pct | fabs] | max) <= 2
    ' >/dev/null \
    || { echo "ci: FAIL: sampled-vs-full IPC error exceeds 2% (or malformed table)"; exit 1; }

# The bundle phase builds one bundle per workload, on `--jobs` threads.
# A multi-kernel sampled campaign at --jobs 1 (serial) and --jobs 2
# (bundles built side by side) must produce identical rows.
for j in 1 2; do
    cargo run --release -q -p dmdp-bench --bin dmdp -- \
        campaign --name ci-sampled-j$j --scale test --model all \
        --kernel mcf --kernel gcc --kernel h264ref --kernel lbm \
        --sampled --interval-insns 1000 --warmup-intervals 2 \
        --jobs $j --force --quiet --out "bench-results/ci-sampled-j$j.json"
done
sampled_rows() {
    jq -S '[.jobs[] | {digest, cycles, retired_insns, ipc}]' "$1"
}
diff <(sampled_rows bench-results/ci-sampled-j1.json) \
     <(sampled_rows bench-results/ci-sampled-j2.json) \
    || { echo "ci: FAIL: sampled campaign rows differ between --jobs 1 and --jobs 2"; exit 1; }
jq -e '.jobs | length == 16' bench-results/ci-sampled-j2.json >/dev/null \
    || { echo "ci: FAIL: sampled --jobs 2 campaign is missing rows"; exit 1; }

# Sweep-batching smoke: one multi-variant sweep, run as batched units,
# must produce the same per-variant numbers (digest, cycles, IPC) as
# six one-variant campaigns, whose units of one run `JobSpec::execute`.
# The sb64 upsize exercises the never-bound derivation path; rob32/sb2
# bind and run live lanes. rmo and w4 put each (kernel, model) unit
# across three sizing groups, which the batch visits one at a time.
sweep_on=bench-results/ci-sweep-batched.json
sweep_off=bench-results/ci-sweep-jpv.json
rm -f "$sweep_on" "$sweep_off" bench-results/ci-sweep-1-*.json
sweep_variants="main= rob32=rob:32 sb2=sb:2 sb64=sb:64 rmo=rmo w4=width:4"
cargo run --release -q -p dmdp-bench --bin dmdp -- \
    campaign --name ci-sweep-batched --scale test --model all \
    --kernel mcf --kernel astar \
    $(printf -- '--variant %s ' $sweep_variants) \
    --force --quiet --out "$sweep_on"
for v in $sweep_variants; do
    cargo run --release -q -p dmdp-bench --bin dmdp -- \
        campaign --name "ci-sweep-1-${v%%=*}" --scale test --model all \
        --kernel mcf --kernel astar --variant "$v" \
        --force --quiet --out "bench-results/ci-sweep-1-${v%%=*}.json"
done
jq -s '{jobs: [.[].jobs[]]}' bench-results/ci-sweep-1-*.json > "$sweep_off"
test -s "$sweep_on"
variants_of() {
    jq -S '[.jobs[] | {workload, model, variant, digest, cycles, ipc}]
           | sort_by(.digest)' "$1"
}
diff <(variants_of "$sweep_on") <(variants_of "$sweep_off") \
    || { echo "ci: FAIL: batched sweep diverges from job-per-variant"; exit 1; }

# Daemon smoke: serve on a temp socket, submit the smoke campaign twice.
# The second submission must be satisfied entirely from the persistent
# store (0 executed), carry numbers identical to the local smoke
# artifact, and the daemon must drain and exit cleanly on shutdown.
dmdp_bin=target/release/dmdp
serve_dir=$(mktemp -d)
serve_sock="$serve_dir/dmdp.sock"
serve_pid=
cleanup_serve() {
    if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
        kill "$serve_pid" 2>/dev/null || true
        wait "$serve_pid" 2>/dev/null || true
    fi
    rm -rf "$serve_dir"
}
trap cleanup_serve EXIT

# Waits for a daemon whose shutdown was acknowledged to exit, for at
# most 10 s, and returns its exit status. A daemon still running then
# (an accept loop that nothing woke) fails CI by name instead of
# hanging it.
await_exit() {
    local pid=$1 what=$2
    for _ in $(seq 1 200); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.05
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "ci: FAIL: $what (pid $pid) still running 10 s after its shutdown was acknowledged"
        exit 1
    fi
    wait "$pid"
}

serve_log="$serve_dir/events.jsonl"
"$dmdp_bin" serve --socket "$serve_sock" --store "$serve_dir/store" \
    --jobs "$(nproc)" --quiet \
    --log "$serve_log" --log-level debug --slow-job-ms 0 &
serve_pid=$!
for _ in $(seq 1 200); do
    [ -S "$serve_sock" ] && break
    sleep 0.05
done
test -S "$serve_sock"

submit="$dmdp_bin submit --socket $serve_sock --scale test --model all --quiet"
$submit --name ci-serve-1 --out "$serve_dir/first.json"
$submit --name ci-serve-2 --out "$serve_dir/second.json"

# Observability smoke: the `metrics` snapshot over the socket must be
# valid JSON that lists each series (a name and its labels) once and
# shows the sweep's work.
"$dmdp_bin" metrics --socket "$serve_sock" | jq -e '
    .type == "metrics"
    and ([.metrics[] | [.name, .labels]] | length == (unique | length))
    and any(.metrics[]; .name == "dmdp_requests_total" and .kind == "counter")
    and ([.metrics[] | select(.name == "dmdp_queue_wait_us"
                              and .kind == "histogram"
                              and .count > 0
                              and (.buckets | length > 0))] | length == 1)
    and any(.metrics[]; .name == "dmdp_jobs_total"
                        and .labels.source == "executed" and .value > 0)
' >/dev/null || { echo "ci: FAIL: metrics snapshot malformed or missing the sweep's work"; exit 1; }

# Request tracing: the artifact's trace id must appear in the daemon's
# event log, and with --slow-job-ms 0 every executed job logs slow_job.
serve_trace=$(jq -r '.trace_id // empty' "$serve_dir/first.json")
test -n "$serve_trace" || { echo "ci: FAIL: artifact carries no trace_id"; exit 1; }
jq -en --arg t "$serve_trace" \
    '[inputs] | any(.event == "submit_done" and .trace == $t)' "$serve_log" \
    >/dev/null || { echo "ci: FAIL: trace $serve_trace missing from event log"; exit 1; }
jq -en '[inputs] | any(.event == "slow_job")' "$serve_log" >/dev/null \
    || { echo "ci: FAIL: no slow_job events despite --slow-job-ms 0"; exit 1; }

# Second submission: zero executed, everything cached.
jq -e '.executed == 0 and .cached == (.jobs | length)' \
    "$serve_dir/second.json" >/dev/null \
    || { echo "ci: FAIL: second submission re-executed jobs"; exit 1; }
# Daemon numbers must match the locally-run smoke campaign exactly.
digests_of() { jq -S '[.jobs[] | {digest, cycles, ipc}] | sort_by(.digest)' "$1"; }
diff <(digests_of "$out") <(digests_of "$serve_dir/second.json") \
    || { echo "ci: FAIL: daemon results diverge from local campaign"; exit 1; }

# A large artifact over the socket: the figure campaign's 756 rows, one
# 0.5 MB line on the wire, submitted cold and then warm. Whole rows are
# compared, so a codec that dropped a member (the figure counters, a
# counter) fails here. Both artifacts must carry every member of the
# local figure campaign's rows but the run-dependent ones, the cold and
# the warm artifact must agree on every member but `cached`, and the
# warm one must come entirely from the store.
rows_without() {
    jq -S --argjson drop "$1" \
        '[.jobs[] | with_entries(select(.key | IN($drop[]) | not))] | sort_by(.digest)' "$2"
}
run_dependent='["cached", "wall_s", "mips", "started_s", "finished_s"]'
for n in 1 2; do
    timeout 60 $submit --name "ci-serve-fig-$n" $(printf -- '--variant %s ' $fig_variants) \
        --out "$serve_dir/fig-$n.json" \
        || { echo "ci: FAIL: figure submission $n to the daemon failed"; exit 1; }
    diff <(rows_without "$run_dependent" "$fig_out") \
         <(rows_without "$run_dependent" "$serve_dir/fig-$n.json") \
        || { echo "ci: FAIL: daemon figure artifact $n diverges from $fig_out"; exit 1; }
done
diff <(rows_without '["cached"]' "$serve_dir/fig-1.json") \
     <(rows_without '["cached"]' "$serve_dir/fig-2.json") \
    || { echo "ci: FAIL: warm figure rows differ from the cold ones"; exit 1; }
jq -e '.executed == 0 and .cached == (.jobs | length)' "$serve_dir/fig-2.json" >/dev/null \
    || { echo "ci: FAIL: warm figure submission re-executed jobs"; exit 1; }

# An impossible variant is a request error, and leaves the daemon able
# to drain (the shutdown below is time-boxed, so a wedge fails CI).
if timeout 30 $submit --name ci-serve-tiny --kernel mcf --variant tiny=prf:10 \
        --out "$serve_dir/tiny.json" 2>/dev/null; then
    echo "ci: FAIL: a --variant tiny=prf:10 submit succeeded"
    exit 1
fi

# The store is one append-only row log: a format header, then one line
# per row this daemon wrote, and no per-row files.
serve_writes=$("$dmdp_bin" metrics --socket "$serve_sock" \
    | jq '[.metrics[] | select(.name == "dmdp_store_writes_total") | .value] | add // 0')
serve_rows=$(( $(wc -l < "$serve_dir/store/rows.log") - 1 ))
[ "$serve_writes" -gt 0 ] && [ "$serve_rows" = "$serve_writes" ] \
    || { echo "ci: FAIL: rows.log holds $serve_rows rows for $serve_writes store writes"; exit 1; }
if find "$serve_dir/store" -name '*.json' | grep -q .; then
    echo "ci: FAIL: per-row files under $serve_dir/store"
    exit 1
fi

# Graceful shutdown: acknowledged, clean exit code, socket removed.
timeout 30 "$dmdp_bin" submit --socket "$serve_sock" --shutdown
await_exit "$serve_pid" "dmdp serve daemon"
serve_pid=
[ ! -e "$serve_sock" ] || { echo "ci: FAIL: daemon left its socket behind"; exit 1; }

# Rows survive a restart: a new daemon on the same store serves the
# figure campaign from the log alone, row for row as the warm submit.
"$dmdp_bin" serve --socket "$serve_sock" --store "$serve_dir/store" \
    --jobs "$(nproc)" --quiet --log "$serve_dir/events-restart.jsonl" &
serve_pid=$!
for _ in $(seq 1 200); do
    [ -S "$serve_sock" ] && break
    sleep 0.05
done
test -S "$serve_sock"
timeout 60 $submit --name ci-serve-fig-3 $(printf -- '--variant %s ' $fig_variants) \
    --out "$serve_dir/fig-3.json" \
    || { echo "ci: FAIL: figure submission to the restarted daemon failed"; exit 1; }
jq -e '.executed == 0 and .cached == (.jobs | length)' "$serve_dir/fig-3.json" >/dev/null \
    || { echo "ci: FAIL: the restarted daemon re-executed figure jobs"; exit 1; }
diff <(rows_without '["cached"]' "$serve_dir/fig-2.json") \
     <(rows_without '["cached"]' "$serve_dir/fig-3.json") \
    || { echo "ci: FAIL: the restarted daemon's figure rows differ from the warm ones"; exit 1; }
timeout 30 "$dmdp_bin" submit --socket "$serve_sock" --shutdown
await_exit "$serve_pid" "restarted dmdp serve daemon"
serve_pid=

# One store: a campaign on the stopped daemon's store (a store directory
# has one row writer at a time) executes none of the figure sweep, and
# its rows are the daemon's.
"$dmdp_bin" campaign --name ci-store-fig --scale test --model all \
    $(printf -- '--variant %s ' $fig_variants) \
    --store "$serve_dir/store" --jobs "$(nproc)" --quiet --out "$serve_dir/fig-4.json"
jq -e '.executed == 0 and .cached == (.jobs | length)' "$serve_dir/fig-4.json" >/dev/null \
    || { echo "ci: FAIL: a campaign on the daemon's store re-executed figure jobs"; exit 1; }
diff <(rows_without '["cached"]' "$serve_dir/fig-3.json") \
     <(rows_without '["cached"]' "$serve_dir/fig-4.json") \
    || { echo "ci: FAIL: the campaign's figure rows differ from the daemon's"; exit 1; }

# A client without a daemon must fail with a non-zero exit.
if "$dmdp_bin" submit --socket "$serve_sock" --ping --connect-retries 0 2>/dev/null; then
    echo "ci: FAIL: submit succeeded against a dead socket"
    exit 1
fi

# Sharded smoke: a coordinator spawning two worker shards must produce
# the same artifact as the local smoke campaign, satisfy a repeat submit
# entirely from the store, drain cleanly, and leave no worker behind.
shard_dir=$(mktemp -d)
shard_sock="$shard_dir/dmdp.sock"
shard_log="$shard_dir/events.jsonl"
shard_pid=
cleanup_shard() {
    if [ -n "$shard_pid" ] && kill -0 "$shard_pid" 2>/dev/null; then
        kill "$shard_pid" 2>/dev/null || true
        wait "$shard_pid" 2>/dev/null || true
    fi
    rm -rf "$shard_dir"
}
trap 'cleanup_serve; cleanup_shard' EXIT

"$dmdp_bin" serve --socket "$shard_sock" --store "$shard_dir/store" \
    --workers 2 --quiet --log "$shard_log" --log-level debug &
shard_pid=$!
for _ in $(seq 1 200); do
    n=$(jq -rn '[inputs | select(.event == "worker_spawned")] | length' \
        "$shard_log" 2>/dev/null || echo 0)
    [ "$n" = 2 ] && break
    sleep 0.05
done
[ "$n" = 2 ] || { echo "ci: FAIL: workers never spawned ($shard_log)"; exit 1; }

shard_submit="$dmdp_bin submit --socket $shard_sock --scale test --model all --quiet"
$shard_submit --name ci-shard-1 --out "$shard_dir/first.json"
# Workers only execute: the coordinator is the store's one row writer,
# so it wrote every row the first submit executed.
shard_writes=$("$dmdp_bin" metrics --socket "$shard_sock" \
    | jq '[.metrics[] | select(.name == "dmdp_store_writes_total") | .value] | add // 0')
shard_executed=$(jq '.executed' "$shard_dir/first.json")
[ "$shard_executed" -gt 0 ] && [ "$shard_writes" = "$shard_executed" ] \
    || { echo "ci: FAIL: coordinator wrote $shard_writes rows for $shard_executed executed"; exit 1; }
# Workers simulate at background priority (nice 19); the coordinator,
# whose threads answer requests, keeps the priority of this shell.
nice_of() { sed 's/.*) //' "/proc/$1/stat" | cut -d' ' -f17; }
for wp in $(jq -rn '[inputs | select(.event == "worker_spawned") | .pid] | @tsv' "$shard_log"); do
    [ "$(nice_of "$wp")" = 19 ] \
        || { echo "ci: FAIL: worker $wp runs at nice $(nice_of "$wp"), not 19"; exit 1; }
done
[ "$(nice_of "$shard_pid")" = "$(nice)" ] \
    || { echo "ci: FAIL: coordinator runs at nice $(nice_of "$shard_pid"), not $(nice)"; exit 1; }
$shard_submit --name ci-shard-2 --out "$shard_dir/second.json"

# Groups really flowed through the shards.
jq -en '[inputs] | any(.event == "dispatch")' "$shard_log" >/dev/null \
    || { echo "ci: FAIL: sharded daemon dispatched nothing"; exit 1; }
# Second submission: zero executed, everything from the shared store.
jq -e '.executed == 0 and .cached == (.jobs | length)' \
    "$shard_dir/second.json" >/dev/null \
    || { echo "ci: FAIL: second sharded submission re-executed jobs"; exit 1; }
# Sharded numbers must match the locally-run smoke campaign exactly.
diff <(digests_of "$out") <(digests_of "$shard_dir/second.json") \
    || { echo "ci: FAIL: sharded results diverge from local campaign"; exit 1; }

# Drain: coordinator exits cleanly and reaps both workers.
worker_pids=$(jq -rn '[inputs | select(.event == "worker_spawned") | .pid] | @tsv' \
    "$shard_log")
timeout 30 "$dmdp_bin" submit --socket "$shard_sock" --shutdown
await_exit "$shard_pid" "dmdp serve --workers 2 coordinator"
shard_pid=
for wp in $worker_pids; do
    for _ in $(seq 1 100); do
        kill -0 "$wp" 2>/dev/null || break
        sleep 0.05
    done
    if kill -0 "$wp" 2>/dev/null; then
        echo "ci: FAIL: worker $wp left running after drain"
        kill -9 "$wp" 2>/dev/null || true
        exit 1
    fi
done

echo "ci: build + tests + smoke campaign + probe artifacts + paper figures + sampled smoke + sweep batching + daemon/metrics + one store + sharded smoke OK ($out)"
