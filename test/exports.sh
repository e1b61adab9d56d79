#!/bin/sh
# List every `val` declared in lib/**/*.mli whose name appears in no
# source file (.ml/.mli under lib/, bin/, bench/, examples/ and test/)
# other than its own module's .ml and .mli, and fail if there is one:
# an export no other code names is surface nothing needs.
# Usage: exports.sh ROOT
set -eu
root="$1"
files=$(find "$root/lib" "$root/bin" "$root/bench" "$root/examples" "$root/test" \
  -type f \( -name '*.ml' -o -name '*.mli' \) | sort)
unused=$(
  awk '
    FNR == 1 { file = FILENAME; is_mli = (file ~ /\/lib\/.*\.mli$/) }
    is_mli && match($0, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_'\'']*/) {
      decl = substr($0, RSTART, RLENGTH)
      sub(/^[ \t]*val[ \t]+/, "", decl)
      nvals++; val_file[nvals] = file; val_name[nvals] = decl
    }
    {
      line = $0
      gsub(/[^A-Za-z0-9_'\'']+/, " ", line)
      n = split(line, words, " ")
      for (i = 1; i <= n; i++) seen[words[i], file] = 1
      # Files are read once each; remember them for the lookup below.
      if (FNR == 1) { nfiles++; all_files[nfiles] = file }
    }
    END {
      for (v = 1; v <= nvals; v++) {
        mli = val_file[v]; ml = mli; sub(/i$/, "", ml)
        used = 0
        for (f = 1; f <= nfiles && !used; f++) {
          g = all_files[f]
          if (g != mli && g != ml && ((val_name[v], g) in seen)) used = 1
        }
        if (!used) print substr(mli, length(root) + 2) ": " val_name[v]
      }
    }' root="$root" $files
)
if [ -n "$unused" ]; then
  printf '%s\n' "$unused"
  echo "exports.sh: $(printf '%s\n' "$unused" | wc -l) exported values have no caller outside their module"
  exit 1
fi
