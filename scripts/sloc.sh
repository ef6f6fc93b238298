#!/usr/bin/env bash
# Source-line count: non-blank lines that are not `//` comment lines, over
# every *.hpp and *.cpp under the given directories (default: src/core).
# This is the figure refactors report as "net lines".
#
#   scripts/sloc.sh [dir...]
set -euo pipefail

if [[ $# -eq 0 ]]; then
  set -- src/core
fi

find "$@" -type f \( -name '*.hpp' -o -name '*.cpp' \) -print0 |
  xargs -0 -r cat |
  { grep -v -e '^[[:space:]]*$' -e '^[[:space:]]*//' || true; } |
  wc -l
