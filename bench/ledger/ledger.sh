#!/bin/sh
# Builds the ledger and the pgserve daemon its serve-mix workload drives,
# then runs the ledger with this script's arguments. Run from the root of
# the source tree, e.g.
#   bash bench/ledger/ledger.sh run --workload warm-rhs --seed 3
# Build output goes to stderr, so the ledger's last stdout line stays its
# JSON result. The shared dune cache is disabled so that the build reads
# and writes only inside the tree.
set -e
export DUNE_CACHE=disabled
dune build --root . --display quiet \
  ./bench/ledger/ledger.exe ./bin/pgserve.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
