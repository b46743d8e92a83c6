#!/usr/bin/env bash
# Builds the seqver binary and perfbench.exe from source, then runs
# perfbench.exe with this script's arguments.  Run from the repository root:
#   bash perfbench/run.sh --workload flow_table1 --seed 1 --seconds 25 --trace 0
set -euo pipefail
dune build --root . --cache=disabled --display=quiet \
  ./bin/seqver_cli.exe ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
