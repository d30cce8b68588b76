# resmod build/test/experiment entry points (stdlib-only Go module).

GO ?= go

.PHONY: all build fmt vet test test-short race cover fuzz benchcheck inlinecheck alloccheck loc experiments report serve smoke trace distcheck clean

all: build test

build:
	$(GO) build ./...

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Ten seconds on each decoder that takes bytes from outside the process:
# checkpoint files, store summary records, the shard reply stream (also
# run in CI).  `go test -fuzz` takes one target and one package a run.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointMerge -fuzztime=10s ./internal/faultsim/
	$(GO) test -run='^$$' -fuzz=FuzzSummaryRecordRestore -fuzztime=10s ./internal/faultsim/
	$(GO) test -run='^$$' -fuzz=FuzzShardStream -fuzztime=10s ./internal/dist/

# The repo's perf harness is the nested benchmark/ module (declared in
# BENCHMARK.json; run it with `go run -C benchmark resmod/benchmark`).
# Root `go build/vet/test ./...` never descend into a nested module, so
# this target is what proves an engine change still compiles against,
# and passes the tests of, the harness that measures it (also run in CI).
benchcheck:
	$(GO) vet -C benchmark ./...
	$(GO) test -C benchmark ./...

# The instrumented fpe ops (and lu's stencil read) are fast because they
# inline, each within a point or two of the compiler's budget; this asks
# the toolchain for its verdict and fails when one no longer does (also
# run in CI).
inlinecheck:
	./scripts/inlinecheck.sh

# Every test that pins an allocation count or a byte count skips itself
# under the race detector, whose shadow allocations would fail it — and
# CI's other test steps all run under it.  This runs them
# without it: the fpe datapath, the simmpi engine and message free lists,
# each app's pooled run, the pooled trial, the telemetry hot path (also run
# in CI).  A new pin joins by carrying Alloc, Pool or Bounded in its name.
alloccheck:
	$(GO) test -count=1 -run 'Alloc|Pool|Bounded|TestNilRecorder|TestWorld1024' \
		./internal/fpe ./internal/simmpi ./internal/apps/... ./internal/faultsim ./internal/telemetry

# Non-blank, non-comment, non-test Go lines per package — the count the
# ROADMAP's code-size aim tracks.  `./scripts/loc.sh -check` (CI) fails
# when a package or the total outgrew scripts/loc.baseline; a PR that means
# to grow one commits the new baseline: `make loc > scripts/loc.baseline`.
loc:
	@./scripts/loc.sh

# Regenerate the paper's tables and figures (console form).
experiments:
	$(GO) run ./cmd/resmod all -trials 400

# Regenerate EXPERIMENTS.md, all of it: the report is every exper.Plan row
# with a report heading — the paper's evaluation, then the extensions — so
# nothing in the file is hand-written and the redirect loses nothing.  The
# paper's statistical protocol is -trials 4000; 400 is a few minutes on
# two cores.
report:
	$(GO) run ./cmd/resmod report -trials 400 > EXPERIMENTS.md

# Run the prediction service (HTTP JSON API; see README "Running as a
# service").  Results persist under ./results across restarts.
serve:
	$(GO) run ./cmd/resmod serve -listen 127.0.0.1:8080 -store ./results

# Boot a throwaway service instance and exercise the cold->warm
# prediction path end-to-end (also run in CI).
smoke:
	./scripts/smoke.sh

# Boot a coordinator plus two worker processes, run a prediction
# through the sharded HTTP path while killing one worker mid-run, and
# assert the merged result is identical to a single-node run (also run
# in CI; report in DISTCHECK_OUT, default distcheck.json).
distcheck:
	./scripts/distcheck.sh

# Capture a Chrome trace of a small campaign into trace.json (open it
# in chrome://tracing or https://ui.perfetto.dev).  CI runs the same
# path via scripts/tracecheck.sh, which also validates the JSON.
trace:
	$(GO) run ./cmd/resmod campaign -app PENNANT -procs 4 -trials 200 -trace trace.json

clean:
	$(GO) clean ./...
