#!/bin/sh
# A bad --resume path never hangs a tool: melody_sim and melody_serve are
# each given a FIFO, a directory and an empty file to resume from, and each
# must exit non-zero at once with a structured error naming what is wrong:
#   FIFO, directory   "cannot open <path>" (refused before any open, so a
#                     FIFO with no writer does not block the reader);
#   empty file        the format's header check ("bad magic").
# melody_replay takes its resume path from the trace header: a trace
# recorded by a resumed session whose checkpoint has since been replaced by
# a FIFO is refused the same way.
# Each run is capped by timeout(1) when it is installed, so a hang fails
# that case by name instead of the whole test by its ctest timeout.
#
# usage: cli_resume_refusals.sh /path/to/melody_sim /path/to/melody_serve \
#            /path/to/melody_replay
sim=$1
serve=$2
replay=$3
status=0
dir=$(mktemp -d "${TMPDIR:-/tmp}/melody_resume.XXXXXX") || exit 1
trap 'rm -rf "$dir"' EXIT
mkfifo "$dir/fifo" || exit 1
mkdir "$dir/dir"
: > "$dir/empty"

cap=""
command -v timeout >/dev/null 2>&1 && cap="timeout 20"

check() {  # check NAME EXPECTED COMMAND...
  name=$1
  expected=$2
  shift 2
  out=$($cap "$@" 2>&1 </dev/null)
  got=$?
  if [ "$got" -eq 124 ]; then
    echo "FAIL: $name hung"
    status=1
  elif [ "$got" -eq 0 ]; then
    echo "FAIL: $name exited 0"
    status=1
  elif ! printf '%s' "$out" | grep -qF "$expected"; then
    echo "FAIL: $name exited $got without '$expected':"
    printf '%s\n' "$out" | grep -v '^ ' | head -n 5
    status=1
  else
    echo "ok: $name exits $got"
  fi
}

for kind in fifo dir empty; do
  path="$dir/$kind"
  case $kind in
    empty) expected="bad magic" ;;
    *) expected="cannot open $path" ;;
  esac
  check "melody_sim --resume $kind" "$expected" \
    "$sim" --workers 10 --tasks 5 --runs 2 --quiet --resume "$path"
  check "melody_serve --resume $kind" "$expected" \
    "$serve" --workers 10 --tasks 5 --stdin --manual-clock --quiet \
    --resume "$path"
done

small="--workers 10 --tasks 5 --manual-clock --quiet"
hello='{"op":"hello","id":1}'
if printf '%s\n' "$hello" |
     "$serve" --stdin $small --checkpoint "$dir/saved.ckpt" >/dev/null &&
   printf '%s\n' "$hello" |
     "$serve" --stdin $small --resume "$dir/saved.ckpt" \
       --trace-out "$dir/resumed.trc" >/dev/null; then
  rm "$dir/saved.ckpt"
  mkfifo "$dir/saved.ckpt"
  check "melody_replay of a trace resumed from a fifo" \
    "cannot open $dir/saved.ckpt" "$replay" --trace "$dir/resumed.trc" --quiet
else
  echo "FAIL: could not record a resumed trace"
  status=1
fi
exit $status
