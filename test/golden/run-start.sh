#!/bin/sh
# Print the provenance each subcommand stamps on its event stream: the
# first line of `--events-out -` (the `run.start` event: command,
# version, engine, domain count), with its timestamp blanked to T.
#
#   sh run-start.sh path/to/timedmap.exe
#
# stderr (the human-facing output, moved there by `--events-out -`) is
# dropped.
exe=$1

run () {
  echo "\$ timedmap $* --events-out -"
  out=$("$exe" "$@" --events-out - 2>/dev/null)
  code=$?
  printf '%s\n' "$out" | head -n 1 | sed 's/"ts":[^,]*,/"ts":T,/'
  echo "[exit $code]"
}

run verify -S rm --engine paranoid
run run -S rm --engine ref
run margin -S fd --engine ref --domains 2
run check -S rm --runs 3 --domains 2
run exact -S rm
run simulate -S rm --steps 5
