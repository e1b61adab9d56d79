#!/bin/sh
# List every `val` declared in lib/**/*.mli that no source file (.ml/.mli
# under lib/, bin/, bench/, examples/ and test/) other than its own
# module's .ml and .mli names, and fail if there is one: an export no
# other code names is surface nothing needs.
#
# A `val x` of module Foo (foo.mli, or a `module Foo : sig` inside an
# .mli) counts as named in a file only when that file
#   - writes `Foo.x` (possibly under a longer path, `Lib.Foo.x`);
#   - writes `M.x` and declares `module M = ...Foo`;
#   - writes a bare `x` (not after a `.`) and opens Foo: `open ...Foo`,
#     `let open ...Foo in` or `...Foo.(`, directly or through an alias.
# Comments and string literals are blanked before any of this.
# It also fails on any lib/**/*.ml without a sibling .mli: such a module
# exports every top-level value, and the check above never sees it.
# And it fails on any optional parameter `?label` declared in a
# lib/**/*.mli that no .ml file other than the module's own writes as
# `~label` or `?label` (by name, whichever function it is passed to): a
# knob no caller sets is a constant.
# Directories named exports_fixture hold the check's own test input and
# are skipped.
# Usage: exports.sh ROOT
set -eu
root="$1"
dirs=
for d in lib bin bench examples test; do
  if [ -d "$root/$d" ]; then dirs="$dirs $root/$d"; fi
done
# shellcheck disable=SC2086
files=$(find $dirs -name exports_fixture -prune -o \
  -type f \( -name '*.ml' -o -name '*.mli' \) -print | sort)
unused=$(
  awk '
    # Blank comments (nested) and string literals, keeping the code.
    # [depth] and [in_str] carry across lines of one file.
    function clean(s,   out, tok) {
      out = ""
      while (s != "") {
        if (in_str) {
          if (!match(s, /\\.|"/)) { s = ""; break }
          tok = substr(s, RSTART, RLENGTH)
          s = substr(s, RSTART + RLENGTH)
          if (tok == "\"") { in_str = 0; if (depth == 0) out = out " " }
          continue
        }
        if (!match(s, /\(\*|\*\)|'\''\\?"'\''|"/)) {
          if (depth == 0) out = out s
          s = ""
          break
        }
        if (depth == 0) out = out substr(s, 1, RSTART - 1) " "
        tok = substr(s, RSTART, RLENGTH)
        s = substr(s, RSTART + RLENGTH)
        if (tok == "(*") depth++
        else if (tok == "*)") { if (depth > 0) depth-- }
        else if (tok == "\"") in_str = 1
      }
      return out
    }
    # The last component of a module path such as Lib.Foo.
    function last(path) {
      sub(/\.$/, "", path)
      sub(/.*\./, "", path)
      return path
    }
    FNR == 1 {
      file = FILENAME; nfiles++; all_files[nfiles] = file
      is_mli = (index(file, root "/lib/") == 1 && file ~ /\.mli$/)
      is_ml = (file ~ /\.ml$/)
      depth = 0; in_str = 0; sig_depth = 0; pending = ""
      top = file; sub(/.*\//, "", top); sub(/\..*$/, "", top)
      top = toupper(substr(top, 1, 1)) substr(top, 2)
    }
    {
      line = clean($0)
      if (is_mli) {
        if (match(line, /module[ \t]+[A-Z][A-Za-z0-9_'\'']*[ \t]*:[ \t]*sig/)) {
          pending = substr(line, RSTART, RLENGTH)
          sub(/^module[ \t]+/, "", pending); sub(/[ \t]*:.*$/, "", pending)
        }
        if (match(line, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_'\'']*/)) {
          decl = substr(line, RSTART, RLENGTH)
          sub(/^[ \t]*val[ \t]+/, "", decl)
          owner = top
          for (d = sig_depth; d > 0; d--) if (mod_at[d] != "") { owner = mod_at[d]; break }
          nvals++; val_file[nvals] = file; val_name[nvals] = decl; val_mod[nvals] = owner
        }
        rest = line
        while (match(rest, /\?[a-z_][A-Za-z0-9_'\'']*[ \t]*:/)) {
          m = substr(rest, RSTART + 1, RLENGTH - 1); rest = substr(rest, RSTART + RLENGTH)
          sub(/[ \t]*:$/, "", m)
          if (!((m, file) in knob_seen)) {
            knob_seen[m, file] = 1
            nknobs++; knob_file[nknobs] = file; knob_name[nknobs] = m
          }
        }
        n = split(line, words, /[^A-Za-z0-9_'\'']+/)
        for (i = 1; i <= n; i++) {
          if (words[i] == "sig" || words[i] == "object") {
            sig_depth++; mod_at[sig_depth] = pending; pending = ""
          } else if (words[i] == "end" && sig_depth > 0) sig_depth--
        }
      }
      # module M = ...Foo
      rest = line
      while (match(rest, /module[ \t]+[A-Z][A-Za-z0-9_'\'']*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_'\''.]*/)) {
        m = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
        name = m; sub(/^module[ \t]+/, "", name); sub(/[ \t]*=.*$/, "", name)
        target = m; sub(/^[^=]*=[ \t]*/, "", target)
        alias_of[name, file] = last(target)
        aliases[last(target), file] = aliases[last(target), file] " " name
      }
      # open ...Foo, open! ...Foo, let open ...Foo in
      rest = line
      while (match(rest, /open!?[ \t]+[A-Z][A-Za-z0-9_'\''.]*/)) {
        m = substr(rest, RSTART, RLENGTH); rest = substr(rest, RSTART + RLENGTH)
        sub(/^open!?[ \t]+/, "", m)
        opened[last(m), file] = 1
        if ((last(m), file) in alias_of) opened[alias_of[last(m), file], file] = 1
      }
      # Qualified names Foo.x, and local opens Foo.( / Foo.[ / Foo.{
      rest = line; prev = ""
      while (match(rest, /[A-Z][A-Za-z0-9_'\'']*\.([a-z_][A-Za-z0-9_'\'']*|[([{])/)) {
        before = (RSTART > 1) ? substr(rest, RSTART - 1, 1) : prev
        m = substr(rest, RSTART, RLENGTH)
        prev = substr(rest, RSTART + RLENGTH - 1, 1)
        rest = substr(rest, RSTART + RLENGTH)
        if (before ~ /[A-Za-z0-9_'\'']/) continue
        mod = m; sub(/\..*$/, "", mod)
        if (m ~ /[([{]$/) {
          opened[mod, file] = 1
          if ((mod, file) in alias_of) opened[alias_of[mod, file], file] = 1
        } else {
          qual[m, file] = 1
        }
      }
      # Labels written as ~label or ?label in an implementation.
      if (is_ml) {
        rest = line; prev = ""
        while (match(rest, /[~?][a-z_][A-Za-z0-9_'\'']*/)) {
          before = (RSTART > 1) ? substr(rest, RSTART - 1, 1) : prev
          m = substr(rest, RSTART + 1, RLENGTH - 1)
          prev = substr(rest, RSTART + RLENGTH - 1, 1)
          rest = substr(rest, RSTART + RLENGTH)
          if (before !~ /[A-Za-z0-9_'\'']/) passed[m, file] = 1
        }
      }
      # Bare words: everything left once qualified suffixes are removed.
      bare_line = line
      gsub(/\.[a-z_][A-Za-z0-9_'\'']*/, " ", bare_line)
      n = split(bare_line, words, /[^A-Za-z0-9_'\'']+/)
      for (i = 1; i <= n; i++) if (words[i] != "") bare[words[i], file] = 1
    }
    END {
      for (v = 1; v <= nvals; v++) {
        mli = val_file[v]; ml = mli; sub(/i$/, "", ml)
        x = val_name[v]; mod = val_mod[v]
        used = 0
        for (f = 1; f <= nfiles && !used; f++) {
          g = all_files[f]
          if (g == mli || g == ml) continue
          if ((mod "." x, g) in qual) used = 1
          else if (((mod, g) in opened) && ((x, g) in bare)) used = 1
          else if ((mod, g) in aliases) {
            k = split(aliases[mod, g], names, " ")
            for (j = 1; j <= k && !used; j++) if ((names[j] "." x, g) in qual) used = 1
          }
        }
        if (!used) print "val " substr(mli, length(root) + 2) ": " (mod == top_of(mli) ? "" : mod ".") x
      }
      for (v = 1; v <= nknobs; v++) {
        mli = knob_file[v]; ml = mli; sub(/i$/, "", ml)
        x = knob_name[v]
        used = 0
        for (f = 1; f <= nfiles && !used; f++) {
          g = all_files[f]
          if (g != ml && ((x, g) in passed)) used = 1
        }
        if (!used) print "knob " substr(mli, length(root) + 2) ": ?" x
      }
    }
    function top_of(path,   t) {
      t = path; sub(/.*\//, "", t); sub(/\..*$/, "", t)
      return toupper(substr(t, 1, 1)) substr(t, 2)
    }' root="$root" $files
)
no_mli=
if [ -d "$root/lib" ]; then
  no_mli=$(find "$root/lib" -type f -name '*.ml' | sort | while read -r ml; do
    [ -f "${ml}i" ] || echo "${ml#"$root"/}: no .mli"
  done)
fi
status=0
if [ -n "$no_mli" ]; then
  printf '%s\n' "$no_mli"
  echo "exports.sh: $(printf '%s\n' "$no_mli" | wc -l) library modules have no interface"
  status=1
fi
vals=$(printf '%s\n' "$unused" | sed -n 's/^val //p')
knobs=$(printf '%s\n' "$unused" | sed -n 's/^knob //p')
if [ -n "$vals" ]; then
  printf '%s\n' "$vals"
  echo "exports.sh: $(printf '%s\n' "$vals" | wc -l) exported values have no caller outside their module"
  status=1
fi
if [ -n "$knobs" ]; then
  printf '%s\n' "$knobs"
  echo "exports.sh: $(printf '%s\n' "$knobs" | wc -l) optional parameters are passed by no file outside their module"
  status=1
fi
exit "$status"
