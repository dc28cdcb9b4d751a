# Source this file for `refused`, the CI check that a command is refused.
#
#   refused NAME [PATTERN...] -- COMMAND...
#
# COMMAND must exit 1, a refusal and not a crash; its stderr goes to NAME.err,
# which must hold no Python traceback and must match every PATTERN (grep).
refused() {
  local name=$1 patterns=() rc=0
  shift
  while [ "$1" != "--" ]; do patterns+=("$1"); shift; done
  shift
  "$@" 2> "$name.err" || rc=$?
  if [ "$rc" -ne 1 ] || grep -q Traceback "$name.err"; then
    echo "$name: exit $rc; expected 1 and no traceback"; cat "$name.err"; exit 1
  fi
  for pattern in "${patterns[@]}"; do
    if ! grep -q -- "$pattern" "$name.err"; then
      echo "$name: stderr does not match '$pattern'"; cat "$name.err"; exit 1
    fi
  done
}
