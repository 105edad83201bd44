#!/bin/sh
# Print the golden transcript of one system: the stdout and exit code
# of every subcommand in the matrix below, as `timedmap` runs it.
#
#   sh run.sh path/to/timedmap.exe SYSTEM
#
# Used by the dune rules next to it, which diff the result against
# SYSTEM.expected.  The transcripts pin the default (LU) widening, so
# TM_NO_LU is cleared; stderr is dropped.
exe=$1
sys=$2
unset TM_NO_LU

run () {
  echo "\$ timedmap $*"
  "$exe" "$@" 2>/dev/null
  echo "[exit $?]"
}

run verify -S "$sys" -n 3
run margin -S "$sys" -n 2 --json
run exact -S "$sys"
run map -S "$sys"
run check -S "$sys" --runs 20 --steps 40
run simulate -S "$sys" --steps 20 --seed 42
run progress -S "$sys" -n 2
