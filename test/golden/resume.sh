#!/bin/sh
# Print the golden transcript of one checkpoint scenario: each command's
# stdout and exit code, then whether the checkpoint file is still on
# disk.  The file lives in the current directory under CASE.ckpt, so
# the scenarios can run side by side.
#
#   sh resume.sh path/to/timedmap.exe CASE
#
# Cases:
#   chain        run chains budget-exhausted attempts through a checkpoint
#   resume       verify leaves a checkpoint, run --resume finishes the job
#   giveup       run stops after an item gives up with a checkpoint, and a
#                later run --resume picks up that item's progress
#   resume-later run --resume routed to an item that is not the first one
#   fallback     fischer's invariant falls back to its own search when
#                U_enter's shared search stops on an unsupported shape
#                or a violation; a budget-cut fallback search leaves a
#                checkpoint that run --resume routes back to the group;
#                a budget-cut shared search resumes, stops on the
#                unsupported shape, removes its snapshot and falls back
#
# stderr is dropped.
exe=$1
case_=$2
ck=$case_.ckpt
rm -f "$ck"

run () {
  echo "\$ timedmap $*"
  "$exe" "$@" 2>/dev/null
  echo "[exit $?]"
  if [ -e "$ck" ]; then echo "[$ck exists]"; else echo "[$ck absent]"; fi
}

case $case_ in
  chain)
    run run -S rm --budget-states 20 --checkpoint "$ck" --backoff-ms 0 \
      --attempts 5 ;;
  resume)
    run verify -S fischer -n 3 --budget-states 100 --checkpoint "$ck"
    run run -S fischer -n 3 --resume "$ck" --budget-states 100 \
      --backoff-ms 0 --attempts 5 ;;
  giveup)
    run run -S fischer -n 3 --budget-states 100 --checkpoint "$ck" \
      --attempts 2 --backoff-ms 0
    run run -S fischer -n 3 --resume "$ck" --budget-states 100 \
      --attempts 5 --backoff-ms 0 ;;
  resume-later)
    run verify -S rm --budget-states 60 --checkpoint "$ck" \
      --checkpoint-every 5
    run run -S rm --resume "$ck" --budget-states 60 --checkpoint-every 5 ;;
  fallback)
    run verify -S fischer -n 4 -a 3 -b 3
    run verify -S fischer -n 4 -a 2 -b 1
    run verify -S fischer -n 4 -a 3 -b 3 --budget-states 3000 \
      --checkpoint "$ck"
    run run -S fischer -n 4 -a 3 -b 3 --resume "$ck" --budget-states 3000 \
      --attempts 5 --backoff-ms 0
    run verify -S fischer -n 4 -a 3 -b 3 --budget-states 1000 \
      --checkpoint "$ck"
    run run -S fischer -n 4 -a 3 -b 3 --resume "$ck" ;;
  *)
    echo "resume.sh: unknown case $case_" >&2
    exit 2 ;;
esac
rm -f "$ck"
