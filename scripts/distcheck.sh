#!/usr/bin/env bash
# Distributed-execution check for `resmod serve -coordinator` + `resmod
# worker`: boots a coordinator with two worker processes, runs a
# prediction through the sharded HTTP path, SIGKILLs one worker while
# shards are in flight, and asserts the job still completes with a
# result byte-identical (wall-time fields excluded) to a plain
# single-node run.  Also checks the cluster roster endpoint, the
# resmod_dist_* / resmod_fleet_* metric families, the merged
# cross-fleet job trace (spans from both workers), and the SSE progress
# stream (monotone campaign progress while shards run elsewhere).  The
# JSON report lands in DISTCHECK_OUT (default distcheck.json) and the
# merged trace in DISTCHECK_TRACE (default distcheck_trace.json) so CI
# can archive both.
set -euo pipefail

cd "$(dirname "$0")/.."
out=${DISTCHECK_OUT:-distcheck.json}
trace_out=${DISTCHECK_TRACE:-distcheck_trace.json}
trials=${DISTCHECK_TRIALS:-120}
check=distcheck
. scripts/lib.sh

# predict ADDR OUTFILE: submit the fixed prediction and poll it to done,
# writing the final job JSON to OUTFILE.
body='{"app":"PENNANT","small":4,"large":8}'
predict() {
    local a=$1 file=$2 id status
    id=$(curl -fsS -X POST "http://$a/v1/predictions" -d "$body" |
        sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p') || true
    [ -n "$id" ] || fail "submit returned no job id"
    echo "$id" >"$workdir/last-job-id"
    status=
    for _ in $(seq 1 1200); do
        curl -fsS "http://$a/v1/predictions/$id" >"$file" || true
        status=$(sed -n 's/.*"status": "\([a-z]*\)".*/\1/p' "$file" | head -n1)
        [ "$status" = done ] && return 0
        { [ "$status" = failed ] || [ "$status" = canceled ]; } &&
            fail "job ended $status: $(cat "$file")"
        sleep 0.2
    done
    fail "job stuck in '$status'"
}

go build -o "$workdir/resmod" ./cmd/resmod

# --- baseline: plain single-node run -------------------------------------
boot local
# Plain servers must still answer the roster endpoint, as a non-coordinator.
get_has "http://$addr/v1/cluster" '"coordinator": \?false' ||
    fail "plain server /v1/cluster did not report coordinator: false"
predict "$addr" "$workdir/job-local.json"
shutdown

# --- distributed: coordinator + two workers, one killed mid-run ----------
# (its own store: the baseline's would answer the job from disk)
boot coord -store "$workdir/store-coord" -coordinator -heartbeat-timeout 2s
coord_addr=$addr

"$workdir/resmod" worker -coordinator "http://$coord_addr" \
    -name w-alpha -heartbeat 250ms 2>"$workdir/w1.log" &
w1pid=$!
disown "$w1pid"
extra_pids+=("$w1pid")
"$workdir/resmod" worker -coordinator "http://$coord_addr" \
    -name w-beta -heartbeat 250ms 2>"$workdir/w2.log" &
w2pid=$!
disown "$w2pid"
extra_pids+=("$w2pid")
for _ in $(seq 1 100); do
    get_has "http://$coord_addr/v1/cluster" '"workers_alive": \?2\b' && break
    kill -0 "$w1pid" 2>/dev/null || fail "worker 1 exited before registering"
    kill -0 "$w2pid" 2>/dev/null || fail "worker 2 exited before registering"
    sleep 0.1
done
# The cluster view and fleet families see both workers before any loss.
cluster=$(curl -fsS "http://$coord_addr/v1/cluster")
grep -q '"coordinator": \?true' <<<"$cluster" ||
    fail "coordinator /v1/cluster did not report coordinator: true"
grep -q '"workers_alive": \?2\b' <<<"$cluster" ||
    fail "two workers never became alive"
m=$(curl -fsS "http://$coord_addr/metrics")
grep -q '^resmod_fleet_workers_alive 2$' <<<"$m" ||
    fail "resmod_fleet_workers_alive != 2 with both workers up"

# Capture the distributed job's SSE stream from submission: the stream
# must show live campaign progress while the trials run on the workers.
rm -f "$workdir/last-job-id"
(
    for _ in $(seq 1 300); do
        [ -s "$workdir/last-job-id" ] && break
        sleep 0.1
    done
    [ -s "$workdir/last-job-id" ] || exit 1
    curl -NsS --max-time 300 \
        "http://$coord_addr/v1/predictions/$(cat "$workdir/last-job-id")/events" \
        >"$workdir/sse.log"
) &
ssepid=$!

# Kill one worker once BOTH workers have completed at least one shard —
# the merged trace must contain spans from each, and the coordinator
# must requeue the casualty's unfinished ranges onto the survivor (or
# run them locally) with the job still completing.
(
    for _ in $(seq 1 1200); do
        m=$(curl -fsS "http://$coord_addr/metrics")
        a=$(echo "$m" | awk -F' ' '/^resmod_fleet_worker_shards_done_total\{worker="w-alpha"\} / {print $2}')
        b=$(echo "$m" | awk -F' ' '/^resmod_fleet_worker_shards_done_total\{worker="w-beta"\} / {print $2}')
        if [ -n "$a" ] && [ -n "$b" ] && [ "$a" -ge 1 ] && [ "$b" -ge 1 ]; then
            kill -KILL "$w1pid" 2>/dev/null
            exit 0
        fi
        sleep 0.1
    done
    exit 1
) &
killer=$!
predict "$coord_addr" "$workdir/job-dist.json"
wait "$killer" || fail "both workers never completed a shard — distributed path unused"
wait "$ssepid" || fail "SSE capture never got the job id"

# The killed worker's heartbeats stop: fleet liveness must drop to 1
# within the heartbeat timeout.
alive=
for _ in $(seq 1 100); do
    alive=$(curl -fsS "http://$coord_addr/metrics" |
        awk '/^resmod_fleet_workers_alive / {print $2}')
    [ "$alive" = 1 ] && break
    sleep 0.1
done
[ "$alive" = 1 ] || fail "resmod_fleet_workers_alive stuck at '$alive' after SIGKILL, want 1"

# The merged job trace shows the cross-fleet timeline: dispatch spans
# plus grafted worker shard spans tagged with both worker names.
job_id=$(cat "$workdir/last-job-id")
curl -fsS "http://$coord_addr/v1/predictions/$job_id/trace" >"$trace_out" ||
    fail "no job trace for $job_id"
grep -q '"dispatch"' "$trace_out" || fail "job trace has no dispatch spans"
grep -q '"worker_name":"w-alpha"' "$trace_out" ||
    fail "job trace has no grafted spans from w-alpha"
grep -q '"worker_name":"w-beta"' "$trace_out" ||
    fail "job trace has no grafted spans from w-beta"

# The SSE stream carried live campaign progress, monotone per campaign.
python3 - "$workdir/sse.log" <<'EOF' || fail "SSE progress stream check failed"
import json, sys
events = []
for line in open(sys.argv[1]):
    if line.startswith("data: "):
        events.append(json.loads(line[len("data: "):]))
campaigns = [e for e in events if e.get("kind") == "campaign"]
if not campaigns:
    print("no campaign progress events on the SSE stream", file=sys.stderr)
    sys.exit(1)
high = {}
for e in campaigns:
    key, done = e["key"], e.get("done", 0)
    if done < high.get(key, 0):
        print(f"campaign {key} progress regressed: {done} after {high[key]}",
              file=sys.stderr)
        sys.exit(1)
    high[key] = done
if not any(e.get("state") == "running" for e in campaigns):
    print("no in-flight (running) campaign snapshot ever streamed", file=sys.stderr)
    sys.exit(1)
EOF

metrics=$(curl -fsS "http://$coord_addr/metrics")
dispatched=$(echo "$metrics" | awk '/^resmod_dist_shards_dispatched_total / {print $2}')
completed=$(echo "$metrics" | awk '/^resmod_dist_shards_completed_total / {print $2}')
requeued=$(echo "$metrics" | awk '/^resmod_dist_shards_requeued_total / {print $2}')
localn=$(echo "$metrics" | awk '/^resmod_dist_shards_local_total / {print $2}')
[ -n "$dispatched" ] && [ "$dispatched" -ge 1 ] ||
    fail "resmod_dist_shards_dispatched_total missing or zero"
[ -n "$completed" ] && [ "$completed" -ge 1 ] ||
    fail "no shard completed over the distributed path"
grep -q '^resmod_fleet_workers_known 2$' <<<"$metrics" ||
    fail "coordinator does not know 2 workers"

# The distributed result (after losing a worker mid-run) must match the
# single-node baseline exactly, wall-time fields aside.
python3 - "$workdir/job-local.json" "$workdir/job-dist.json" <<'EOF' ||
import json, sys

def result(path):
    with open(path) as f:
        job = json.load(f)
    row = job["result"]
    for k in ("SmallTime", "SerialTime"):
        row.pop(k, None)
    return row

a, b = result(sys.argv[1]), result(sys.argv[2])
if a != b:
    print("distributed result differs from local baseline:", file=sys.stderr)
    print("local: " + json.dumps(a, sort_keys=True), file=sys.stderr)
    print("dist:  " + json.dumps(b, sort_keys=True), file=sys.stderr)
    sys.exit(1)
EOF
    fail "distributed result != local baseline"

python3 - "$workdir/job-local.json" "$workdir/job-dist.json" \
    "${dispatched:-0}" "${completed:-0}" "${requeued:-0}" "${localn:-0}" >"$out" <<'EOF'
import json, sys
local = json.load(open(sys.argv[1]))
dist = json.load(open(sys.argv[2]))
print(json.dumps({
    "check": "distcheck",
    "identical": True,
    "local_elapsed_ms": local.get("elapsed_ms", 0),
    "dist_elapsed_ms": dist.get("elapsed_ms", 0),
    "shards_dispatched": int(float(sys.argv[3])),
    "shards_completed": int(float(sys.argv[4])),
    "shards_requeued": int(float(sys.argv[5])),
    "shards_local": int(float(sys.argv[6])),
}, indent=2))
EOF

shutdown

echo "distcheck: OK (2 workers, 1 killed mid-run: $dispatched dispatched," \
    "$completed completed, ${requeued:-0} requeued, ${localn:-0} local;" \
    "result identical to single-node; report in $out)"
