#!/bin/sh
# Print how `timedmap ARGS...` ends when it cannot write an output
# file: its stdout and exit code, then its stderr.  Whatever was printed
# before the failed write stays on stdout; the failure is a one-line
# message and exit 2.
#
#   sh io-error.sh path/to/timedmap.exe ARGS...
exe=$1
shift
echo "\$ timedmap $*"
"$exe" "$@" 2>/dev/null
echo "[exit $?]"
echo "[stderr]"
echo "$("$exe" "$@" 2>&1 >/dev/null)"
