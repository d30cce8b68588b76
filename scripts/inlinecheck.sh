#!/usr/bin/env bash
# Inline guard: the fpe datapath is fast only because Add, Sub and Mul
# inline into the kernels that call them, and MG's stencils only because
# (*faces).sum does.  Each sits within a point or two of the compiler's
# budget of 80, so one added statement turns every op back into a call
# (~40 % of predict_paper) and no test notices.  Reserve and Tally run
# once per window, which is now a plane, a batch of lines or a block of
# rows, and Tally costs 58 of the 80; Room sizes the windows of the
# vector ops (Dot, Axpy, …) and of FT's line batches, once per window
# too.  The stencils choose their planes and rows with apps.Layer and
# apps.Row and read a row's x neighbours with apps.Beside, once per row or
# per element.  This asks the toolchain itself: each function below must
# be reported "can inline"; otherwise the compiler's own "cannot inline …
# cost N exceeds budget 80" line is printed and the script fails.
set -euo pipefail
cd "$(dirname "$0")/.."

report=$(go build -gcflags=-m=2 ./internal/fpe ./internal/apps ./internal/apps/mg 2>&1)

status=0
for fn in '(*Ctx).Add' '(*Ctx).Sub' '(*Ctx).Mul' '(*Ctx).Reserve' '(*Ctx).Tally' '(*Ctx).Room' 'Layer' 'Row' 'Beside' '(*faces).sum'; do
    if line=$(grep -F "can inline $fn with cost" <<<"$report"); then
        echo "inlinecheck: ${line%% as: *}"
    else
        echo "inlinecheck: $fn does not inline:" >&2
        grep -F "cannot inline $fn:" <<<"$report" >&2 || echo "  (no verdict for $fn in the -m=2 output)" >&2
        status=1
    fi
done
exit $status
