#!/usr/bin/env bash
# Smoke test for `resmod serve`: boots the real binary with a throwaway
# store, computes one prediction, restarts the server over the same
# store, and checks the identical POST is answered from disk (flagged
# cached, reported in /metrics) and that a third process answers a GET of
# the first one's job id — with a clean SIGTERM drain every time.
# Along the way it asserts the engine-telemetry metric families
# (resmod_trial_total by outcome, duration histograms) reach /metrics,
# that the outcome-labeled sum matches resmod_campaign_trials_total, that
# /v1/status reports the aggregate service state, and that a live job's
# SSE stream (/v1/predictions/{id}/events) delivers progress snapshots
# and a terminal done event.
set -euo pipefail

cd "$(dirname "$0")/.."
check=smoke
trials=10
. scripts/lib.sh

go build -o "$workdir/resmod" ./cmd/resmod
body='{"app":"PENNANT","small":4,"large":8}'

# --- cold run: compute one prediction, then stop -------------------------
# -sample-every 100ms makes the retention/alerting surfaces populate
# within the run instead of on the production 10s cadence.
boot cold -sample-every 100ms
id=$(curl -fsS -X POST "http://$addr/v1/predictions" -d "$body" |
    sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p') || true
[ -n "$id" ] || fail "submit returned no job id"

status=
for _ in $(seq 1 300); do
    status=$(curl -fsS "http://$addr/v1/predictions/$id" |
        sed -n 's/.*"status": "\([a-z]*\)".*/\1/p') || true
    [ "$status" = done ] && break
    { [ "$status" = failed ] || [ "$status" = canceled ]; } && fail "job ended $status"
    sleep 0.1
done
[ "$status" = done ] || fail "job stuck in '$status'"

# Engine telemetry must have reached /metrics: outcome-labeled trial
# counters whose sum equals the campaign-trials total, plus the new
# duration histograms.
metrics=$(curl -fsS "http://$addr/metrics")
grep -q '^resmod_trial_total{outcome="success"} ' <<<"$metrics" ||
    fail "resmod_trial_total{outcome=...} missing from /metrics"
grep -q '^resmod_trial_duration_seconds_count ' <<<"$metrics" ||
    fail "resmod_trial_duration_seconds missing from /metrics"
grep -q '^resmod_campaign_duration_seconds_count ' <<<"$metrics" ||
    fail "resmod_campaign_duration_seconds missing from /metrics"
outcome_sum=$(echo "$metrics" | awk -F' ' '/^resmod_trial_total{/ {s += $2} END {print s}')
trials_total=$(echo "$metrics" | awk '/^resmod_campaign_trials_total / {print $2}')
[ "$outcome_sum" = "$trials_total" ] ||
    fail "outcome sum $outcome_sum != resmod_campaign_trials_total $trials_total"
[ "$trials_total" -gt 0 ] || fail "cold run executed no trials"

# Live-progress metric families (PR 5): trial-runner occupancy gauges
# plus the per-campaign progress ratio and trial-rate series retained by
# the server-wide progress bus.
grep -q '^resmod_worker_budget_in_use ' <<<"$metrics" ||
    fail "resmod_worker_budget_in_use missing from /metrics"
grep -q '^resmod_campaign_progress_ratio{campaign=' <<<"$metrics" ||
    fail "resmod_campaign_progress_ratio series missing from /metrics"
grep -q '^# TYPE resmod_trials_per_second gauge' <<<"$metrics" ||
    fail "resmod_trials_per_second family missing from /metrics"

# Live progress over SSE: submit a second prediction and stream its
# events while it runs — the stream must carry at least one progress
# snapshot and end with the terminal done event (the server closes the
# connection after it, so curl exits on its own).
id2=$(curl -fsS -X POST "http://$addr/v1/predictions" \
    -d '{"app":"CG","small":4,"large":8}' |
    sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p') || true
[ -n "$id2" ] || fail "second submit returned no job id"
curl -sN --max-time 120 "http://$addr/v1/predictions/$id2/events" \
    >"$workdir/sse.out" || fail "SSE stream did not end cleanly"
grep -q '^event: progress$' "$workdir/sse.out" ||
    fail "no progress event on the SSE stream"
grep -q '^event: done$' "$workdir/sse.out" ||
    fail "no terminal done event on the SSE stream"

# Aggregate service state: /v1/status reports both finished jobs and the
# campaigns tracked on the progress bus.
status_doc=$(curl -fsS "http://$addr/v1/status")
grep -q '"status": "ok"' <<<"$status_doc" || fail "/v1/status not ok"
grep -q '"jobs_total": 2' <<<"$status_doc" ||
    fail "/v1/status jobs_total != 2: $status_doc"
grep -q '"done": 2' <<<"$status_doc" ||
    fail "/v1/status does not report 2 done jobs: $status_doc"
grep -Eq '"campaigns_tracked": [1-9]' <<<"$status_doc" ||
    fail "/v1/status tracked no campaigns: $status_doc"

# Retention and alerting (PR 10): sampled series are queryable, the alert
# engine answers with its built-in rule set (and nothing fires on a
# healthy run), and the alert metric families reach /metrics.
get_has "http://$addr/v1/series" '"trials_total"' ||
    fail "/v1/series index missing the trials_total series"
get_has "http://$addr/v1/series?name=queue_depth&since=10m&max=50" '"name": "queue_depth"' ||
    fail "/v1/series query failed"
alerts_doc=$(curl -fsS "http://$addr/v1/alerts")
grep -q '"name": "queue-saturation"' <<<"$alerts_doc" ||
    fail "/v1/alerts missing the built-in rules: $alerts_doc"
grep -q '"firing": 0' <<<"$alerts_doc" ||
    fail "healthy smoke run has firing alerts: $alerts_doc"
metrics=$(curl -fsS "http://$addr/metrics")
grep -q '^# TYPE resmod_alerts gauge' <<<"$metrics" ||
    fail "resmod_alerts family missing from /metrics"
grep -q '^resmod_alerts_firing 0$' <<<"$metrics" ||
    fail "resmod_alerts_firing missing or non-zero"

shutdown

# --- warm run: a fresh process over the same store answers from disk -----
boot warm
warm_doc=$(curl -fsS -X POST "http://$addr/v1/predictions" -d "$body")
grep -q '"cached": true' <<<"$warm_doc" || fail "warm POST not served from the store"
metrics=$(curl -fsS "http://$addr/metrics")
grep -q '^resmod_prediction_cache_hits_total 1$' <<<"$metrics" ||
    fail "cache hit missing from /metrics"
grep -q '^resmod_campaign_trials_total 0$' <<<"$metrics" ||
    fail "warm server re-ran campaign trials"
shutdown

# --- id run: a fresh process answers the pre-restart id before any POST --
boot id
get_has "http://$addr/v1/predictions/$id" '"status": "done"' ||
    fail "GET of the pre-restart id $id is not done"
shutdown

# --- hardened run: tenancy, rate limits, content-addressed retries -------
# A tiny anonymous budget (burst 3, ~zero refill) plus one keyed tenant,
# over a fresh store so admissions actually enqueue.
boot hardened -store "$workdir/store-hardened" \
    -anon-rate 0.02 -anon-burst 3 -api-keys smokekey:smoketeam
hbody='{"app":"PENNANT","small":2,"large":4}'

# A retry is addressed by its body: re-POSTing the same payload (an
# Idempotency-Key header is ignored) answers 200 with the first job id
# and joins that job instead of admitting a second one.
first_id=$(curl -fsS -X POST "http://$addr/v1/predictions" \
    -H 'Idempotency-Key: smoke-retry' -d "$hbody" |
    sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p') || true
[ -n "$first_id" ] || fail "submit returned no job id"
joined() {
    curl -fsS "http://$addr/metrics" | awk '/^resmod_predictions_joined_total / {print $2}'
}
joined_before=$(joined)
code=$(curl -s -o "$workdir/repost.body" -w '%{http_code}' -X POST "http://$addr/v1/predictions" \
    -H 'Idempotency-Key: smoke-retry' -d "$hbody")
[ "$code" = 200 ] || fail "re-POST returned $code, want 200"
repost_id=$(sed -n 's/.*"id": "\([0-9a-f]*\)".*/\1/p' "$workdir/repost.body")
[ "$repost_id" = "$first_id" ] || fail "re-POST job id '$repost_id' != original '$first_id'"
[ "$(joined)" = $((joined_before + 1)) ] || fail "re-POST did not join the original job"

# Anonymous tier: burst 3 is now spent by a third POST; the fourth is
# shed with 429 and a positive Retry-After.
curl -fsS -o /dev/null -X POST "http://$addr/v1/predictions" -d "$hbody" ||
    fail "third anonymous POST (within burst) rejected"
shed_hdr="$workdir/shed.hdr"
code=$(curl -s -D "$shed_hdr" -o "$workdir/shed.body" -w '%{http_code}' \
    -X POST "http://$addr/v1/predictions" -d "$hbody")
[ "$code" = 429 ] || fail "over-limit anonymous POST returned $code, want 429"
grep -Eqi '^Retry-After: [1-9][0-9]*' "$shed_hdr" ||
    fail "429 carried no positive Retry-After"

# A keyed tenant rides above the anonymous storm.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$addr/v1/predictions" \
    -H 'X-API-Key: smokekey' -d '{"app":"CG","small":2,"large":8}')
case "$code" in 200|202) ;; *) fail "keyed POST returned $code while anon was shed";; esac

# Per-tenant metric families.
metrics=$(curl -fsS "http://$addr/metrics")
grep -q '^resmod_tenant_admitted_total{tenant="anon"} 1$' <<<"$metrics" ||
    fail "anon admitted counter != 1"
grep -q '^resmod_tenant_admitted_total{tenant="smoketeam"} 1$' <<<"$metrics" ||
    fail "smoketeam admitted counter != 1"
grep -q '^resmod_tenant_ratelimited_total{tenant="anon"} 1$' <<<"$metrics" ||
    fail "anon ratelimited counter != 1"
grep -q '^# TYPE resmod_tenant_shed_total counter' <<<"$metrics" ||
    fail "tenant shed family missing"
grep -q '^# TYPE resmod_queue_wait_seconds histogram' <<<"$metrics" ||
    fail "queue-wait histogram family missing"
shutdown

# --- report: `make report` must regenerate the whole of EXPERIMENTS.md ----
# The file is only safe to overwrite while the report carries every
# section; a report that lost its second half fails here, not in review.
"$workdir/resmod" report -trials 2 -quiet >"$workdir/report.md" ||
    fail "resmod report failed"
grep -q '^## Extensions beyond the paper' "$workdir/report.md" ||
    fail "resmod report wrote a document without the Extensions heading"

echo "smoke: OK (cold compute, live SSE progress, status + metrics, series retention + alerts, warm store hit and pre-restart id across restart, tenancy + content-addressed retry + 429 shedding, clean drains, whole report)"
