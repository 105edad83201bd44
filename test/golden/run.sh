#!/bin/sh
# Print the golden transcript of one system: the stdout and exit code
# of every subcommand in the matrix below, as `timedmap` runs it.
#
#   sh run.sh path/to/timedmap.exe SYSTEM
#   sh run.sh path/to/timedmap.exe -- ARGS...    (the one command ARGS)
#
# Used by the dune rules next to it, which diff the result against
# SYSTEM.expected (or, for one command, the rule's own file).  stderr
# is dropped.
exe=$1
sys=$2

run () {
  echo "\$ timedmap $*"
  "$exe" "$@" 2>/dev/null
  echo "[exit $?]"
}

if [ "$sys" = -- ]; then
  shift 2
  run "$@"
  exit 0
fi

run verify -S "$sys" -n 3
run margin -S "$sys" -n 2 --json
run exact -S "$sys"
run map -S "$sys"
run check -S "$sys" --runs 20 --steps 40
run simulate -S "$sys" --steps 20 --seed 42
run progress -S "$sys" -n 2
