# Shared by the gate scripts that boot `resmod serve` (smoke.sh,
# distcheck.sh).  Source it after `cd` to the repo root with:
#   check   the script's name, for messages
#   trials  the -trials every booted server runs with
# It creates $workdir (removed on exit, with every process the script
# left in $pid or $extra_pids) and defines fail, get_has, boot, shutdown.

workdir=$(mktemp -d)
pid=
log=
addr=
extra_pids=()
cleanup() {
    for p in $pid ${extra_pids[*]-}; do
        kill "$p" 2>/dev/null || true
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "$check: FAIL: $*" >&2
    for f in "$workdir"/*.log; do
        echo "--- $f ---" >&2
        cat "$f" >&2 || true
    done
    exit 1
}

# get_has URL PATTERN: fetch the body into a variable, then grep it.
# Piping curl straight into grep -q trips pipefail on a *match*: grep
# exits at the first hit and curl dies of EPIPE (exit 23) on the rest.
get_has() {
    local doc
    doc=$(curl -fsS "$1") || return 1
    grep -q "$2" <<<"$doc"
}

# boot NAME [extra serve flags...]: start the service on an ephemeral
# port over the store $workdir/store (a later -store flag overrides it),
# wait for its address (read off the startup log line) and a passing
# /healthz; sets $pid, $log, $addr.
boot() {
    log="$workdir/$1.log"
    shift
    "$workdir/resmod" serve -listen 127.0.0.1:0 -store "$workdir/store" \
        -trials "$trials" -workers 1 -drain 30s "$@" 2>"$log" &
    pid=$!
    addr=
    for _ in $(seq 1 100); do
        addr=$(sed -n 's#.*serving on http://\([^ ]*\).*#\1#p' "$log" | head -n1)
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || fail "server exited before binding"
        sleep 0.1
    done
    [ -n "$addr" ] || fail "server never logged its address"
    get_has "http://$addr/healthz" '"status": "ok"' || fail "/healthz"
}

# shutdown: SIGTERM must drain cleanly and exit 0.
shutdown() {
    kill -TERM "$pid"
    wait "$pid" || fail "non-zero exit after SIGTERM"
    grep -q "drained cleanly" "$log" || fail "no clean-drain log line"
    pid=
}
