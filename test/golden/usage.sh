#!/bin/sh
# Print how `timedmap ARGS...` fails: its stdout byte count, its stderr
# and its exit code.  A bad input must be a usage error: exit 124, a
# message and a usage hint on stderr, nothing on stdout.
#
#   sh usage.sh path/to/timedmap.exe ARGS...
exe=$1
shift
out=$("$exe" "$@" 2>&1 >/dev/null)
code=$?
echo "\$ timedmap $*"
echo "[stdout: $("$exe" "$@" 2>/dev/null | wc -c | tr -d ' ') bytes]"
echo "$out"
echo "[exit $code]"
