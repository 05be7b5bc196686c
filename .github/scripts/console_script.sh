#!/usr/bin/env bash
# Runs the installed `esacert` console script through every subcommand, and
# checks that the process pool behind --jobs writes what one process writes.
# Everything it writes goes under a temporary directory, removed on exit.
set -eu
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

esacert decide --m 2 --n 8 --c 0
esacert region --m 5 --n 20 --l 0
# a reader that closes the pipe at once: a quiet exit, no traceback
esacert region --m 5 --n 20 --l 0 --json 2>"$work/err" | true
if grep -q Traceback "$work/err"; then cat "$work/err"; exit 1; fi
esacert table --which signs520
esacert table --which gamma2
esacert figure --which fig3 --steps 5 --out "$work/fig3_seq" --jobs 1
esacert figure --which fig3 --steps 5 --out "$work/fig3_pool" --jobs 2
diff -r "$work/fig3_seq" "$work/fig3_pool"
# text output: the JSON envelope echoes the argv, which differs
esacert region --m 5 --n 20 --all-l --lmax 6 --jobs 1 >"$work/region_seq"
esacert region --m 5 --n 20 --all-l --lmax 6 --jobs 2 >"$work/region_pool"
diff "$work/region_seq" "$work/region_pool"
esacert conjecture --mmax 5 --json
esacert basis --c1 0 --c2 -1 --json
esacert basis --c1 5/4 --c2 -39/16
esacert figure --which fig1 --c1 -3 --steps 4 --out "$work/fig1"
esacert figure --which fig2 --out "$work/fig2"
