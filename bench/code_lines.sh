#!/bin/sh
# Code size per top-level directory, the measure every simplicity change
# reports: non-blank lines of *.hpp/*.cpp once `//` comments are stripped.
# The five top-level lines come first, then one line per src/<module>.
# Usage: bench/code_lines.sh [repo-root]   (default: this checkout)
cd "${1:-$(dirname "$0")/..}" || exit 1
count() {
  find "$1" \( -name '*.hpp' -o -name '*.cpp' \) -exec cat {} + |
    sed 's|//.*||' | grep -c '[^[:space:]]'
}
for d in src tools bench tests examples; do
  echo "$d $(count "$d")"
done
for d in src/*/; do
  echo "${d%/} $(count "$d")"
done
