#!/bin/sh
# Print the CLI's flag surface: for every subcommand, the heading line
# (names, value, default) of each argument and option its --help=plain
# page lists. The runtest rule diffs this against cli_flags.expected,
# so adding, removing, renaming or re-defaulting a flag is a visible
# change to that file.
set -eu
exe="$1"
for cmd in world-info scan reproduce experiment campaign traffic resume analyze \
  vuln-report metrics-report posture attack-demo fuzz; do
  echo "== $cmd"
  "$exe" "$cmd" --help=plain | awk '
    /^[A-Z]/ { section = $0; next }
    (section == "ARGUMENTS" || section == "OPTIONS" || section == "COMMON OPTIONS") &&
      /^       [^ ]/ { sub(/^ +/, ""); print }'
done
