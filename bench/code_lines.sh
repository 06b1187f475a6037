#!/bin/sh
# Code size per top-level directory, the measure every simplicity change
# reports: non-blank lines of *.hpp/*.cpp once `//` comments are stripped.
# Usage: bench/code_lines.sh [repo-root]   (default: this checkout)
cd "${1:-$(dirname "$0")/..}" || exit 1
for d in src tools bench tests examples; do
  n=$(find "$d" \( -name '*.hpp' -o -name '*.cpp' \) -exec cat {} + |
    sed 's|//.*||' | grep -c '[^[:space:]]')
  echo "$d $n"
done
