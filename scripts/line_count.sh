#!/bin/sh
# Prints the program's source line count: every .ml, .mli, .c and .h
# file under lib, bin, bench and perfbench (the figure ROADMAP item 12
# tracks), then the same count split per directory, largest first.
# Print-only: it gates nothing and always exits 0.
#
# Usage (from the root of a checkout):
#   scripts/line_count.sh
set -eu

files() {
  find lib bin bench perfbench -type f \
    \( -name '*.ml' -o -name '*.mli' -o -name '*.c' -o -name '*.h' \)
}

total=$(files | xargs cat | wc -l)
echo "source lines (lib bin bench perfbench; .ml .mli .c .h): $total"
files | xargs wc -l | awk '
  $2 != "total" {
    dir = $2
    sub(/\/[^\/]*$/, "", dir)
    lines[dir] += $1
  }
  END { for (d in lines) printf "%8d  %s\n", lines[d], d }
' | sort -rn
