#!/usr/bin/env bash
# Inline guard: the fpe datapath is fast only because Add, Sub and Mul
# inline into the kernels that call them, and lu's stencil only because
# (*slab).get does.  Each sits within a point or two of the compiler's
# budget of 80, so one added statement turns every op back into a call
# (~40 % of predict_paper) and no test notices.  This asks the toolchain
# itself: each function below must be reported "can inline"; otherwise
# the compiler's own "cannot inline … cost N exceeds budget 80" line is
# printed and the script fails.
set -euo pipefail
cd "$(dirname "$0")/.."

report=$(go build -gcflags=-m=2 ./internal/fpe ./internal/apps/lu 2>&1)

status=0
for fn in '(*Ctx).Add' '(*Ctx).Sub' '(*Ctx).Mul' '(*slab).get'; do
    if line=$(grep -F "can inline $fn with cost" <<<"$report"); then
        echo "inlinecheck: ${line%% as: *}"
    else
        echo "inlinecheck: $fn does not inline:" >&2
        grep -F "cannot inline $fn:" <<<"$report" >&2 || echo "  (no verdict for $fn in the -m=2 output)" >&2
        status=1
    fi
done
exit $status
