#!/bin/sh
# The command-line front door every tool shares (util::CommandLine): for
# each TOOL:CODE argument, CODE being the tool's usage exit status,
#   TOOL --help          exits 0 and prints "usage: <name>";
#   TOOL --version       exits 0 and prints a line starting with <name>;
#   TOOL --no-such-flag  exits CODE and prints "unknown flag --no-such-flag";
#   TOOL stray           exits CODE (no tool takes positional arguments).
# Every refusal happens before the tool does any work, so none of these
# starts a server, a cluster or a simulation.
#
# usage: cli_front_door.sh /path/to/melody_sim:1 /path/to/melody_replay:2 ...
status=0

fail() {
  echo "FAIL: $*"
  status=1
  tool_ok=0
}

for spec in "$@"; do
  tool=${spec%:*}
  code=${spec##*:}
  name=$(basename "$tool")
  tool_ok=1

  out=$("$tool" --help 2>&1 </dev/null)
  got=$?
  [ "$got" -eq 0 ] || fail "$name --help exited $got"
  printf '%s' "$out" | grep -qF "usage: $name" ||
    fail "$name --help does not print 'usage: $name'"

  out=$("$tool" --version 2>/dev/null </dev/null)
  got=$?
  [ "$got" -eq 0 ] || fail "$name --version exited $got"
  case "$out" in
    "$name "*) ;;
    *) fail "$name --version printed '$out'" ;;
  esac

  out=$("$tool" --no-such-flag 2>&1 </dev/null)
  got=$?
  [ "$got" -eq "$code" ] || fail "$name --no-such-flag exited $got, not $code"
  printf '%s' "$out" | grep -qF "unknown flag --no-such-flag" ||
    fail "$name --no-such-flag does not name the flag"

  out=$("$tool" stray 2>&1 </dev/null)
  got=$?
  [ "$got" -eq "$code" ] || fail "$name stray exited $got, not $code"
  printf '%s' "$out" | grep -qF "$name takes no positional arguments" ||
    fail "$name stray does not refuse the positional argument"

  [ "$tool_ok" -eq 1 ] && echo "ok: $name"
done
exit $status
