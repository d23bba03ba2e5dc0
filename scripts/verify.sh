#!/usr/bin/env bash
# Full offline verification: tier-1 build+test, formatting, lints, and the
# robustness soak. No network access required — all third-party deps are
# vendored API shims (see DESIGN.md "Dependencies").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
# The root manifest's default-members cover every package, so this also
# (re)builds the soak/all/serve binaries in crates/bench that the smokes
# below run.
cargo build --release

echo "==> cargo test -q (every package, property tests included)"
cargo test -q

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> robustness soak (fault injection + invariant checker)"
# Traced: telemetry/flight/epoch files land in a side directory without
# touching stdout, so a soak failure in CI leaves the flight recorder's
# last-moments dump behind as an uploadable artifact.
VSNOOP_TRACE=target/campaign/soak-trace ./target/release/soak

echo "==> campaign runner smoke (panic isolation + degraded mode)"
# A 3-job sub-campaign with one injected panic must complete, exit 0 in
# degraded mode, flag the failure, and write a crash reproducer.
SMOKE_DIR=target/campaign/verify-smoke
rm -rf "$SMOKE_DIR"
mkdir -p target/campaign
VSNOOP_SCALE=quick ./target/release/all \
  --only fig2 --only table2 --only table3 \
  --inject-panic table2 --jobs 2 --dir "$SMOKE_DIR" > "$SMOKE_DIR.out" 2> "$SMOKE_DIR.err"
grep -q "table2 — FAILED" "$SMOKE_DIR.out"
grep -q "DEGRADED" "$SMOKE_DIR.err"
test -s "$SMOKE_DIR/repro-table2.json"

echo "==> campaign runner smoke (kill + --resume determinism)"
# Kill a campaign mid-flight, resume it, and require the merged journal
# and report to be byte-identical to an uninterrupted run's.
RESUME_DIR=target/campaign/verify-resume
CLEAN_DIR=target/campaign/verify-clean
rm -rf "$RESUME_DIR" "$CLEAN_DIR"
VSNOOP_SCALE=quick ./target/release/all --jobs 1 --dir "$RESUME_DIR" \
  > /dev/null 2>&1 &
CAMPAIGN_PID=$!
for _ in $(seq 1 600); do
  [ -s "$RESUME_DIR/journal.jsonl" ] && break
  sleep 0.1
done
[ -s "$RESUME_DIR/journal.jsonl" ] # at least one checkpoint before the kill
kill -9 "$CAMPAIGN_PID" 2>/dev/null || true
wait "$CAMPAIGN_PID" 2>/dev/null || true
VSNOOP_SCALE=quick ./target/release/all --jobs 1 --dir "$RESUME_DIR" --resume \
  > /dev/null 2>&1
VSNOOP_SCALE=quick ./target/release/all --jobs 1 --workers 1 --dir "$CLEAN_DIR" \
  > /dev/null 2>&1
cmp "$RESUME_DIR/merged.jsonl" "$CLEAN_DIR/merged.jsonl"
cmp "$RESUME_DIR/campaign.txt" "$CLEAN_DIR/campaign.txt"

echo "==> campaign runner smoke (sharded vs serial byte-identity)"
# The heavy reports fan per-application cells over the shard pool
# (--workers); output must be byte-identical to the serial legacy path
# at any worker count. CLEAN_DIR above ran with --workers 1 (forced
# serial), so comparing against an oversubscribed 4-worker run
# exercises scatter's order preservation even on a single-core host.
SHARD_DIR=target/campaign/verify-sharded
rm -rf "$SHARD_DIR"
VSNOOP_SCALE=quick ./target/release/all --jobs 1 --workers 4 --dir "$SHARD_DIR" \
  > /dev/null 2>&1
cmp "$SHARD_DIR/campaign.txt" "$CLEAN_DIR/campaign.txt"
cmp "$SHARD_DIR/merged.jsonl" "$CLEAN_DIR/merged.jsonl"

echo "==> figure output (full scale, byte-identical to bench_results_full.txt)"
# The fixed point of every simulator change: the fault-free full-scale
# campaign's stdout is the committed file, byte for byte (~60 s at
# --jobs 2 on a 2-CPU host). The last stderr line of `all` carries the
# pass's wall time and peak RSS; it is logged, not gated.
FULL_DIR=target/campaign/verify-full
rm -rf "$FULL_DIR"
mkdir -p "$FULL_DIR"
./target/release/all --jobs 2 --dir "$FULL_DIR" 2> "$FULL_DIR/stderr.txt" \
  | cmp - bench_results_full.txt || { cat "$FULL_DIR/stderr.txt" >&2; exit 1; }
tail -n 1 "$FULL_DIR/stderr.txt"

echo "==> batched-engine smoke (VSNOOP_ENGINE_WORKERS=4 vs serial byte-identity)"
# Orthogonal to --workers (which shards *across* cells), the batched
# engine parallelizes *inside* each eligible simulation (DESIGN.md "The
# batched parallel engine"). Its contract is bit-identical output at
# any worker count, so the whole campaign — every artifact, eligible
# and fallback cells alike — must match the serial CLEAN_DIR run byte
# for byte with 4 engine workers forced on.
ENGINE_DIR=target/campaign/verify-engine
rm -rf "$ENGINE_DIR"
VSNOOP_SCALE=quick VSNOOP_ENGINE_WORKERS=4 ./target/release/all \
  --jobs 1 --workers 1 --dir "$ENGINE_DIR" > /dev/null 2>&1
cmp "$ENGINE_DIR/campaign.txt" "$CLEAN_DIR/campaign.txt"
cmp "$ENGINE_DIR/merged.jsonl" "$CLEAN_DIR/merged.jsonl"

echo "==> observability smoke (tracing on, stdout byte-identical)"
# The whole observability layer writes to side files only: a traced
# campaign's stdout and artifacts must be byte-identical to the
# untraced CLEAN_DIR run, while the telemetry stream fills up next to
# them (OBSERVABILITY.md).
TRACED_DIR=target/campaign/verify-traced
TRACE_OUT=target/campaign/verify-trace-files
rm -rf "$TRACED_DIR" "$TRACE_OUT"
VSNOOP_SCALE=quick ./target/release/all --jobs 1 --workers 1 --dir "$TRACED_DIR" \
  --trace-dir "$TRACE_OUT" > "$TRACED_DIR.out" 2> /dev/null
cmp "$TRACED_DIR.out" "$CLEAN_DIR/campaign.txt"
cmp "$TRACED_DIR/campaign.txt" "$CLEAN_DIR/campaign.txt"
cmp "$TRACED_DIR/merged.jsonl" "$CLEAN_DIR/merged.jsonl"
test -s "$TRACE_OUT/telemetry.jsonl"
grep -q '"event":"job_ok"' "$TRACE_OUT/telemetry.jsonl"
./target/release/obs_tail --trace-dir "$TRACE_OUT" --once | grep -q '"event":"job_start"'

echo "==> observability smoke (forced checker violation leaves a flight dump)"
# SOAK_FORCE_VIOLATION corrupts one cache line, lets the invariant
# checker catch it, and must exit non-zero with a flight-recorder dump
# and a checker_violation telemetry record in the trace directory.
VIOL_DIR=target/campaign/verify-violation
rm -rf "$VIOL_DIR"
if SOAK_FORCE_VIOLATION=1 VSNOOP_TRACE="$VIOL_DIR" ./target/release/soak \
  > /dev/null 2>&1; then
  echo "forced-violation soak unexpectedly succeeded" >&2
  exit 1
fi
test -s "$VIOL_DIR/flight-forced-violation.jsonl"
head -1 "$VIOL_DIR/flight-forced-violation.jsonl" | grep -q '"reason":"violation"'
grep -q '"event":"checker_violation"' "$VIOL_DIR/telemetry.jsonl"

echo "==> service smoke (two tenants, SIGTERM drain, served == direct)"
# Start the always-on server, run two tenants' artifact jobs through it,
# then SIGTERM it while a third job is in flight. The drain must be
# clean (exit 0, counters line), the in-flight job must be journaled as
# cancelled, and the completed jobs' outputs must be byte-identical to
# a direct `all --only ...` campaign at the same scale (SERVICE.md).
SVC_DIR=target/campaign/verify-service
rm -rf "$SVC_DIR"
mkdir -p "$SVC_DIR"
# Traced with a fast heartbeat: the server must rewrite
# <trace>/metrics.prom and emit service_metrics records on that
# cadence (OBSERVABILITY.md "Metrics"); checked after the drain.
VSNOOP_SCALE=quick VSNOOP_TRACE="$SVC_DIR/trace" VSNOOP_HEARTBEAT_MS=100 \
  ./target/release/serve --addr 127.0.0.1:0 --workers 2 \
  --journal "$SVC_DIR/journal.jsonl" \
  --drain-grace-ms 300 --cancel-grace-ms 2000 \
  > "$SVC_DIR/serve.out" 2> "$SVC_DIR/serve.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q '^listening on ' "$SVC_DIR/serve.out" 2>/dev/null && break
  sleep 0.1
done
SVC_ADDR=$(awk '/^listening on /{print $3; exit}' "$SVC_DIR/serve.out")
[ -n "$SVC_ADDR" ] # the server came up
./target/release/client --addr "$SVC_ADDR" --tenant acme \
  --submit fig2 --out "$SVC_DIR/acme" --strict > /dev/null
./target/release/client --addr "$SVC_ADDR" --tenant globex \
  --submit table2 --out "$SVC_DIR/globex" --strict > /dev/null
# Scrape the metrics wire op off the live server: one JSONL request,
# one snapshot back, counts covering the two tenants' submits. The jobs
# ran on the two workers started with the server: no thread was
# started per job.
SVC_HOST=${SVC_ADDR%:*}
SVC_PORT=${SVC_ADDR##*:}
exec 3<>"/dev/tcp/$SVC_HOST/$SVC_PORT"
printf '{"op":"metrics"}\n' >&3
IFS= read -r -t 10 METRICS_LINE <&3
exec 3<&- 3>&-
echo "$METRICS_LINE" | grep -q '"type":"metrics"'
echo "$METRICS_LINE" | grep -q '"service_request_us"'
echo "$METRICS_LINE" | grep -q '"tenants"'
echo "$METRICS_LINE" | grep -q '"service_worker_spawns":2[,}]'
# Third tenant: a long spin the drain will have to cancel mid-flight.
./target/release/client --addr "$SVC_ADDR" --tenant initech \
  --submit spin --spin-ms 60000 > "$SVC_DIR/spin.out" &
SPIN_CLIENT_PID=$!
sleep 0.5
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" # clean drain: serve exits 0 after SIGTERM
wait "$SPIN_CLIENT_PID" # the cancelled submit still got a typed answer
grep -q '^drained: ' "$SVC_DIR/serve.out"
grep -q 'cancelled' "$SVC_DIR/spin.out"
grep -q '"job":"spin"' "$SVC_DIR/journal.jsonl"
grep -q 'cancelled' "$SVC_DIR/journal.jsonl"
# The drain's cancellation unwind is an expected ending, not a crash.
# (`set -e` ignores a `!` pipeline, hence the explicit exit.)
! grep -q 'panicked at' "$SVC_DIR/serve.err" || exit 1
# The heartbeat left the Prometheus dump and telemetry summaries behind.
test -s "$SVC_DIR/trace/metrics.prom"
grep -q '^vsnoop_service_request_us_bucket' "$SVC_DIR/trace/metrics.prom"
grep -q '"event":"service_metrics"' "$SVC_DIR/trace/telemetry.jsonl"
# Byte-identity: served outputs vs the same campaign run directly.
DIRECT_DIR=target/campaign/verify-service-direct
rm -rf "$DIRECT_DIR"
VSNOOP_SCALE=quick ./target/release/all --only fig2 --only table2 \
  --dir "$DIRECT_DIR" > /dev/null 2>&1
cat "$SVC_DIR/acme/fig2.txt" "$SVC_DIR/globex/table2.txt" \
  | cmp - "$DIRECT_DIR/campaign.txt"

echo "==> service smoke (overload sheds typed, no hangs)"
# Saturate tiny queues with a client herd; every submit must get a
# typed answer (accepted/shed/done) and at least some must shed.
./target/release/loadtest --clients 8 --tenants 4 --jobs 4 --spin-ms 1 \
  --overload > /dev/null

echo "==> service smoke (chaos proxy soak: seeded faults, nothing lost)"
# Every client dials through a fault-injecting proxy (torn frames,
# stalls, cuts, resets — deterministic for the seed) with the WAL on.
# The retrying clients must still get every request answered exactly
# once, and the run fails if the proxy injected no faults. The log is
# kept as a CI artifact.
CHAOS_LOG=target/campaign/verify-chaos.log
./target/release/loadtest --clients 6 --tenants 3 --jobs 4 --spin-ms 1 \
  --chaos --chaos-seed 42 > "$CHAOS_LOG" 2>&1
grep -q '^chaos: faults=' "$CHAOS_LOG"

echo "==> service smoke (512-connection reactor soak)"
# The connection layer's scaling contract: one reactor thread holding
# 512 concurrent connections, every request answered (loadtest exits 1
# on any unanswered request), with progress streaming on. Then the
# same herd against starved queues (--overload: typed sheds, no
# hangs), and a 64-connection chaos run (reactor reads torn frames
# from a hostile proxy). Logs pile into one file kept as a CI
# artifact on failure.
CONNS_LOG=target/campaign/verify-conns.log
: > "$CONNS_LOG"
./target/release/loadtest --clients 512 --tenants 8 --jobs 2 --spin-ms 0 \
  --workers 4 --queue-cap 2048 --max-inflight 8 --max-queued 512 \
  --deadline-ms 60000 --progress-ms 100 >> "$CONNS_LOG" 2>&1
grep -q 'unanswered=0' "$CONNS_LOG"
# Shown, not gated: the soak runs with its WAL synced, so this client
# line (`latency ... throughput=`) is the synced saturation throughput
# of the service core's one sync per turn.
grep -m1 '^latency ' "$CONNS_LOG" || true
# Server-measured p99 (metrics wire op) must reconcile with the
# client-measured p99: the server resolves quantiles to log2 bucket
# edges, so allow 2x plus scheduling slop, but never silence — both
# lines must be present and the server's must be nonzero.
awk '
  $1 == "latency" && client == "" { client = $3; sub(/^p99=/, "", client); sub(/ms$/, "", client) }
  $1 == "server"  && server == "" { server = $3; sub(/^p99=/, "", server); sub(/ms$/, "", server) }
  END {
    if (client == "" || server == "") { print "missing p99 lines"; exit 1 }
    if (server + 0 <= 0) { print "server p99 is zero: metrics scrape failed"; exit 1 }
    if (server + 0 > client * 2 + 25) {
      printf "server p99 %sms inconsistent with client p99 %sms\n", server, client
      exit 1
    }
  }
' "$CONNS_LOG"
./target/release/loadtest --clients 512 --tenants 8 --jobs 2 --spin-ms 1 \
  --overload >> "$CONNS_LOG" 2>&1
./target/release/loadtest --clients 64 --tenants 8 --jobs 2 --spin-ms 1 \
  --chaos --chaos-seed 7 >> "$CONNS_LOG" 2>&1
grep -q '^chaos: faults=' "$CONNS_LOG"

echo "==> durability smoke (kill -9 mid-flight, recover, reconcile)"
# The full crash-safety contract (SERVICE.md "Durability & recovery"):
# kill -9 a durable server with jobs in flight, restart it on the same
# state dir, and require (a) the retrying clients to come out whole
# with --strict, (b) walcheck to reconcile WAL vs journal — every
# accepted job terminal exactly once, at least one job actually
# recovered — and (c) the served artifact outputs to be byte-identical
# to the direct campaign run, crash and all.
DUR_DIR=target/campaign/verify-durable
rm -rf "$DUR_DIR"
mkdir -p "$DUR_DIR"
VSNOOP_SCALE=quick ./target/release/serve --addr 127.0.0.1:0 \
  --state-dir "$DUR_DIR/state" \
  --drain-grace-ms 300 --cancel-grace-ms 2000 \
  > "$DUR_DIR/serve1.out" 2> "$DUR_DIR/serve1.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q '^listening on ' "$DUR_DIR/serve1.out" 2>/dev/null && break
  sleep 0.1
done
DUR_ADDR=$(awk '/^listening on /{print $3; exit}' "$DUR_DIR/serve1.out")
[ -n "$DUR_ADDR" ] # the server came up
# Two tenants; each submits a slow spin (in flight at the kill) plus a
# real artifact saved with --out for the byte-identity check.
./target/release/client --addr "$DUR_ADDR" --tenant acme \
  --submit spin --submit fig2 --spin-ms 1500 \
  --out "$DUR_DIR/acme" --strict > "$DUR_DIR/acme.out" 2> "$DUR_DIR/acme.err" &
CLIENT_A_PID=$!
./target/release/client --addr "$DUR_ADDR" --tenant globex \
  --submit spin --submit table2 --spin-ms 1500 \
  --out "$DUR_DIR/globex" --strict > "$DUR_DIR/globex.out" 2> "$DUR_DIR/globex.err" &
CLIENT_B_PID=$!
# The WAL is fsynced before each `accepted` ack, so once it holds all
# four accepted records the spins are mid-flight. Kill without mercy.
for _ in $(seq 1 100); do
  [ "$(grep -c '"rec":"accepted"' "$DUR_DIR/state/wal.jsonl" 2>/dev/null)" -ge 4 ] && break
  sleep 0.1
done
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
# Restart on the same address and state dir: replays the WAL,
# re-enqueues the unfinished jobs, dedups the clients' resubmissions.
VSNOOP_SCALE=quick ./target/release/serve --addr "$DUR_ADDR" \
  --state-dir "$DUR_DIR/state" \
  --drain-grace-ms 300 --cancel-grace-ms 2000 \
  > "$DUR_DIR/serve2.out" 2> "$DUR_DIR/serve2.err" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  grep -q '^listening on ' "$DUR_DIR/serve2.out" 2>/dev/null && break
  sleep 0.1
done
wait "$CLIENT_A_PID" # strict: every job ok despite the crash
wait "$CLIENT_B_PID"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" # clean drain after recovery
grep -q '^drained: ' "$DUR_DIR/serve2.out"
# Reconcile: nothing lost, nothing duplicated, something was recovered.
./target/release/walcheck \
  --wal "$DUR_DIR/state/wal.jsonl" --journal "$DUR_DIR/state/journal.jsonl" \
  --min-jobs 4 --expect-recovered
# Byte identity across the crash (DIRECT_DIR ran fig2+table2 above).
cat "$DUR_DIR/acme/fig2.txt" "$DUR_DIR/globex/table2.txt" \
  | cmp - "$DIRECT_DIR/campaign.txt"

echo "==> benchmark (simulator + campaign workloads: digests and identities)"
# One second of each simulator workload and one cold campaign pass of
# the repository benchmark (builds the standalone package under
# benchmark/ on first use). Not --quick: --quick skips the committed
# output digests, and those digests and the per-run identities (4.00
# and 16.00 snoops/miss, zero checker violations) are what this lane
# checks. Timings are printed, never gated here: a committed timing
# baseline would only hold on the host that took it, so speed is
# judged by same-host parent-versus-change runs of BENCHMARK.json.
benchmark/run.sh --seconds 1 --workload storm --workload pinned \
  --workload broadcast --workload migrate --workload campaign

echo "==> benchmark selftest (a corrupted digest must fail the lane)"
benchmark/run.sh --selftest

echo "==> benchmark smoke (serve_open: open loop through the real server)"
# One second of the service workload. It exits non-zero if a request
# goes unanswered or a reply is wrong; `set -e` does the rest.
benchmark/run.sh --quick --workload serve_open

echo "verify.sh: ALL CHECKS PASSED"
