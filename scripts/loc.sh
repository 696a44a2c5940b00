#!/usr/bin/env bash
# Net src/ line count per module: `wc -l` over every *.cpp and *.hpp
# under src/<module>, public headers included — the count the ROADMAP's
# LOC baseline uses.  With BASE_REF it also counts the same files at
# that git ref and prints the per-module and total delta.  Prints a
# Markdown table (CI appends it to the job summary).  Reports only: it
# gates nothing.
#
#   scripts/loc.sh               # the working tree
#   scripts/loc.sh origin/main   # plus the delta against origin/main
set -euo pipefail
cd "$(dirname "$0")/.."

base_ref="${1:-}"

# lines <root> <module>: total lines of the module's sources under root.
lines() {
  local dir="$1/src/$2"
  [[ -d "$dir" ]] || { echo 0; return; }
  find "$dir" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 -r cat | wc -l
}

# modules <root>...: module directory names under each root's src/.
modules() {
  local root
  for root in "$@"; do
    find "$root/src" -mindepth 1 -maxdepth 1 -type d -printf '%f\n'
  done | sort -u
}

if [[ -z "$base_ref" ]]; then
  echo "| module | lines |"
  echo "|---|---:|"
  total=0
  for m in $(modules .); do
    n=$(lines . "$m")
    total=$((total + n))
    echo "| $m | $n |"
  done
  echo "| **total** | **$total** |"
  exit 0
fi

base_dir="$(mktemp -d)"
trap 'rm -rf "$base_dir"' EXIT
git archive "$base_ref" src | tar -x -C "$base_dir"

echo "Net \`src/\` LOC against \`$base_ref\`:"
echo
echo "| module | base | head | delta |"
echo "|---|---:|---:|---:|"
base_total=0
head_total=0
for m in $(modules . "$base_dir"); do
  b=$(lines "$base_dir" "$m")
  h=$(lines . "$m")
  base_total=$((base_total + b))
  head_total=$((head_total + h))
  printf '| %s | %d | %d | %+d |\n' "$m" "$b" "$h" $((h - b))
done
printf '| **total** | **%d** | **%d** | **%+d** |\n' \
  "$base_total" "$head_total" $((head_total - base_total))
