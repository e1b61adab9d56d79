#!/bin/sh
# Bad input must come back as a one-line, friendly CLI error with a
# nonzero exit — never a backtrace or a raw exception dump.
set -u
exe="$1"
fails=0

check() {
  desc="$1"
  needle="$2"
  shift 2
  if out=$("$@" 2>&1); then
    echo "FAIL: $desc: expected nonzero exit, got success"
    fails=$((fails + 1))
    return
  fi
  case "$out" in
  *"Raised at"* | *"Raised by"* | *"Fatal error"*)
    echo "FAIL: $desc: backtrace leaked: $out"
    fails=$((fails + 1))
    return
    ;;
  esac
  case "$out" in
  *"$needle"*) ;;
  *)
    echo "FAIL: $desc: wanted \"$needle\" in: $out"
    fails=$((fails + 1))
    return
    ;;
  esac
  echo "ok: $desc"
}

check "regions out of range" "--regions must be between 1 and" \
  "$exe" campaign --regions 9 --domains 1500 --days 1
check "world too small" "--domains must be at least" \
  "$exe" campaign --domains 10 --days 1
check "cross-vantage flag conflicts" "does not support" \
  "$exe" campaign --regions 2 --domains 1500 --days 1 --stream-out /tmp/never-used
check "missing archive" "No such file" \
  "$exe" analyze /nonexistent/archive.csv
check "bad fault profile" "unknown fault profile" \
  "$exe" campaign --domains 1500 --days 1 --fault-profile warp
check "traffic bad users" "--users must be at least 1" \
  "$exe" traffic --users 0 --domains 1500 --days 1
check "traffic infinite --pages-per-day" "--pages-per-day must be finite (got inf)" \
  "$exe" traffic --users 10 --domains 1500 --days 1 --pages-per-day=inf
# TLSHARM_JOBS is parsed and validated exactly like --jobs.
check "non-integer TLSHARM_JOBS" "TLSHARM_JOBS" \
  env TLSHARM_JOBS=abc "$exe" campaign --domains 1500 --days 1
check "zero TLSHARM_JOBS" "--jobs must be at least 1 (got 0)" \
  env TLSHARM_JOBS=0 "$exe" campaign --domains 1500 --days 1

# Fault flags below 1 are refused, not clamped.
check "zero --retries" "--retries must be at least 1 (got 0)" \
  "$exe" scan --domains 1500 --fault-profile default --retries 0
check "zero --probe-deadline" "--probe-deadline must be at least 1 (got 0)" \
  "$exe" scan --domains 1500 --fault-profile default --probe-deadline 0

corrupt=$(mktemp /tmp/tlsharm-corrupt-XXXXXX.csv)
printf 'not,a,campaign\n' >"$corrupt"
check "corrupt archive" "campaign:" "$exe" analyze "$corrupt"
rm -f "$corrupt"

# One-line check: a refusal must be a single line of output.
one_line() {
  desc="$1"
  shift
  out=$("$@" 2>&1)
  if [ "$(printf '%s\n' "$out" | wc -l)" -ne 1 ]; then
    echo "FAIL: $desc: wanted one line, got: $out"
    fails=$((fails + 1))
  fi
}

# An unwritable -o is refused before any world is built or any day
# scanned (a 63-day campaign here would take minutes), naming the path
# the user gave; --regions N writes its CSV there too.
check "campaign -o under a missing directory" "/nonexistent/x.csv" \
  "$exe" campaign --domains 1500 --days 63 -o /nonexistent/x.csv
one_line "campaign -o refusal" "$exe" campaign --domains 1500 --days 63 -o /nonexistent/x.csv
check "cross-vantage -o under a missing directory" "/nonexistent/x.csv" \
  "$exe" campaign --domains 1500 --days 63 --regions 2 -o /nonexistent/x.csv

# Frame a manifest body by hand the way the durable-file writer frames
# it: frame_manifest DIR BODY writes DIR/manifest.
frame_manifest() {
  printf '%s' "$2" >"$1/body"
  {
    printf '#tlsharm-durable v1\n'
    cat "$1/body"
    printf '\n#tlsharm-footer v1 bytes=%d block=65536 crc=%s\n' \
      "$(wc -c <"$1/body")" "$(sha256sum "$1/body" | cut -c1-16)"
  } >"$1/manifest"
  rm "$1/body"
}

# A run log of the previous stream schema (tlsharm-stream/1, written
# beside a separate checkpoint store) must be refused by schema, not
# resumed or streamed into.
old=$(mktemp -d /tmp/tlsharm-oldstream-XXXXXX)
frame_manifest "$old" 'schema=tlsharm-stream/1
start_day=0
n_days=2
'
cp "$old/manifest" "$old/manifest.orig"
check "resume of a tlsharm-stream/1 directory" "tlsharm-stream/1" \
  "$exe" resume "$old"
check "campaign into a tlsharm-stream/1 directory" "tlsharm-stream/1" \
  "$exe" campaign --domains 1500 --days 2 --stream-out "$old"
one_line "tlsharm-stream/1 refusal" "$exe" resume "$old"
ls "$old" | grep -q '^rows-' && {
  echo "FAIL: a tlsharm-stream/1 directory was streamed into anyway"
  fails=$((fails + 1))
}
cmp -s "$old/manifest" "$old/manifest.orig" || {
  echo "FAIL: a tlsharm-stream/1 manifest was rewritten"
  fails=$((fails + 1))
}
rm -rf "$old"

# A run log's manifest is held to the same rules as the flags it
# records: a retry budget the flags would refuse is not resumed.
zero=$(mktemp -d /tmp/tlsharm-zeroretries-XXXXXX)
frame_manifest "$zero" 'schema=tlsharm-stream/4
mode=campaign
seed=tlsharm
n_domains=1500
days=1
fault_profile=default
retries=0
deadline=60
start_day=16862
n_days=1
'
check "resume of a manifest with retries=0" "--retries must be at least 1 (got 0)" \
  "$exe" resume "$zero"
one_line "manifest retries=0 refusal" "$exe" resume "$zero"
ls "$zero" | grep -q '^rows-' && {
  echo "FAIL: a manifest with retries=0 was resumed anyway"
  fails=$((fails + 1))
}
rm -rf "$zero"

# A run log of the previous format (stream schema 2, "#tlsharm-spool v2"
# spools whose day blocks carry HMAC-DRBG states) is refused by version,
# in one line, by both analyze and resume, and left as it was. With the
# manifest current and only the spools old, both name the spool version.
v2=$(mktemp -d /tmp/tlsharm-v2log-XXXXXX)
"$exe" campaign --domains 1500 --days 1 --stream-out "$v2" >/dev/null
cp "$v2/manifest" "$v2.manifest"
for f in "$v2"/rows-*; do sed -i '1s/^#tlsharm-spool v3$/#tlsharm-spool v2/' "$f"; done
frame_manifest "$v2" "$(sed -e '1d' -e '$d' "$v2.manifest" | sed 's|^schema=tlsharm-stream/4$|schema=tlsharm-stream/2|')
"
before=$(cat "$v2"/* | sha256sum)
check "analyze of a v2 run log" "tlsharm-stream/2" "$exe" analyze "$v2"
one_line "v2 analyze refusal" "$exe" analyze "$v2"
check "resume of a v2 run log" "tlsharm-stream/2" "$exe" resume "$v2"
one_line "v2 resume refusal" "$exe" resume "$v2"
[ "$(cat "$v2"/* | sha256sum)" = "$before" ] || {
  echo "FAIL: a refused v2 run log was changed"
  fails=$((fails + 1))
}
cp "$v2.manifest" "$v2/manifest"
before=$(cat "$v2"/* | sha256sum)
check "analyze of v2 spools" "spool format v2" "$exe" analyze "$v2"
one_line "v2 spool refusal" "$exe" analyze "$v2"
check "resume of v2 spools" "spool format v2" "$exe" resume "$v2"
one_line "v2 spool resume refusal" "$exe" resume "$v2"
[ "$(cat "$v2"/* | sha256sum)" = "$before" ] || {
  echo "FAIL: a resume rewrote v2 spools"
  fails=$((fails + 1))
}
rm -rf "$v2" "$v2.manifest"

# A run log of stream schema 3 (day blocks that carried scan state) is
# refused by its schema name, in one line, by both analyze and resume,
# and left as it was.
v3=$(mktemp -d /tmp/tlsharm-v3log-XXXXXX)
"$exe" campaign --domains 1500 --days 1 --stream-out "$v3" >/dev/null
frame_manifest "$v3" "$(sed -e '1d' -e '$d' "$v3/manifest" | sed 's|^schema=tlsharm-stream/4$|schema=tlsharm-stream/3|')
"
before=$(cat "$v3"/* | sha256sum)
check "analyze of a tlsharm-stream/3 run log" "tlsharm-stream/3" "$exe" analyze "$v3"
one_line "tlsharm-stream/3 analyze refusal" "$exe" analyze "$v3"
check "resume of a tlsharm-stream/3 run log" "tlsharm-stream/3" "$exe" resume "$v3"
one_line "tlsharm-stream/3 resume refusal" "$exe" resume "$v3"
[ "$(cat "$v3"/* | sha256sum)" = "$before" ] || {
  echo "FAIL: a refused tlsharm-stream/3 run log was changed"
  fails=$((fails + 1))
}
rm -rf "$v3"

# Earlier builds retried a raising shard in process and marked the
# retry's day blocks "day=N unchecked". This build writes no such block
# and reads none: analyze and resume each refuse a sealed log holding
# one in one line naming the stream and the day, and leave it as it
# was; resume of an unsealed one is a resume mismatch that writes
# nothing, so a second resume refuses it the same way. A refused log
# must be unchanged byte for byte. frame_spool OUT BLOCK... frames payload files
# the way the spool writer does (byte count and SHA-256 tag per block);
# with -open it leaves off the footer, as a run cut short does.
frame_spool() {
  footer=1
  if [ "$1" = -open ]; then footer=0; shift; fi
  out="$1"
  shift
  {
    printf '#tlsharm-spool v3\n'
    i=0
    for b in "$@"; do
      printf '#block %d bytes=%d tag=%s\n' "$i" "$(wc -c <"$b")" "$(sha256sum "$b" | cut -c1-16)"
      cat "$b"
      i=$((i + 1))
    done
    [ "$footer" = 0 ] || printf '#spool-end blocks=%d\n' "$i"
  } >"$out"
}
marked=$(mktemp -d /tmp/tlsharm-marked-XXXXXX)
parts=$(mktemp -d /tmp/tlsharm-parts-XXXXXX)
"$exe" campaign --domains 1500 --days 1 --stream-out "$marked" >/dev/null
awk -v d="$parts" '/^#tlsharm-spool |^#spool-end /{next} /^#block /{n++; next} {print > (d "/b" n)}' \
  "$marked/rows-shard-0000"
sed -i '1s/^day=0$/day=0 unchecked/' "$parts/b1"
frame_spool "$marked/rows-shard-0000" "$parts/b1" "$parts/b2"
before=$(cat "$marked"/* | sha256sum)
unchanged() {
  if [ "$(cat "$marked"/* | sha256sum)" = "$before" ]; then
    echo "ok: $1 left the run log as it was"
  else
    echo "FAIL: $1 changed the run log"
    fails=$((fails + 1))
  fi
}
check "analyze of a marked day block" 'stream "shard-0000", day 0' "$exe" analyze "$marked"
one_line "marked day block refusal" "$exe" analyze "$marked"
unchanged "analyze of a marked day block"
check "resume of a sealed marked day block" 'resume mismatch: stream "shard-0000", day 0' \
  "$exe" resume "$marked"
unchanged "resume of a sealed marked day block"
one_line "sealed marked day block refusal" "$exe" resume "$marked"
frame_spool -open "$marked/rows-shard-0000" "$parts/b1"
before=$(cat "$marked"/* | sha256sum)
first=$("$exe" resume "$marked" 2>&1)
check "resume of an unsealed marked day block" "resume mismatch" "$exe" resume "$marked"
unchanged "resume of an unsealed marked day block"
one_line "unsealed marked day block refusal" "$exe" resume "$marked"
if [ "$("$exe" resume "$marked" 2>&1)" = "$first" ]; then
  echo "ok: a refused resume refuses again with the same line"
else
  echo "FAIL: a second resume did not repeat the refusal: $first"
  fails=$((fails + 1))
fi
rm -rf "$marked" "$parts"

# A run log missing a stream is refused, not read as a smaller run: a
# kill between one shard's seal and the next shard's first write leaves
# exactly this state. The campaign's streams must name the manifest's
# n_domains domains; the traffic shards' user ranges must tile
# [0, users).
missing=$(mktemp -d /tmp/tlsharm-missing-XXXXXX)
"$exe" campaign --domains 1500 --days 1 --stream-out "$missing/c" >/dev/null
rm "$missing/c/rows-shard-0003" "$missing/c/rows-shard-0005"
check "analyze of a campaign log missing a stream" "manifest says 1500" "$exe" analyze "$missing/c"
one_line "campaign missing-stream refusal" "$exe" analyze "$missing/c"
"$exe" traffic --domains 1500 --users 600 --days 1 --shard-users 200 --stream-out "$missing/t" \
  >/dev/null
rm "$missing/t/rows-users-0001"
check "analyze of a traffic log missing a stream" "a stream is missing" "$exe" analyze "$missing/t"
one_line "traffic missing-stream refusal" "$exe" analyze "$missing/t"
# A traffic manifest without a key the report prints is refused by that
# key, not rendered with a placeholder.
"$exe" traffic --domains 1500 --users 60 --days 1 --stream-out "$missing/d" >/dev/null
frame_manifest "$missing/d" "$(sed -e '1d' -e '$d' "$missing/d/manifest" | grep -v '^days=')
"
check "analyze of a traffic manifest without days" "the manifest has no days" \
  "$exe" analyze "$missing/d"
one_line "manifest without days refusal" "$exe" analyze "$missing/d"
rm -rf "$missing"

# Unknown experiment ids are refused before any world is built or any
# table printed: one line, even after a valid id.
check "unknown experiment id" 'unknown experiment "nope"' \
  "$exe" experiment --domains 1500 --days 1 t1 nope
one_line "unknown experiment refusal" "$exe" experiment --domains 1500 --days 1 t1 nope

# A posture target outside the world is an error, not a grade.
check "posture of an unknown domain" 'unknown domain "nonexistent.example"' \
  "$exe" posture --domains 1500 nonexistent.example
one_line "unknown posture domain refusal" "$exe" posture --domains 1500 nonexistent.example

# A --stream-out directory holding another run must be refused, not
# mixed with it: the refused run leaves the first run's archive intact.
reused=$(mktemp -d /tmp/tlsharm-reused-XXXXXX)
"$exe" campaign --domains 1500 --days 1 --seed a --stream-out "$reused" >/dev/null
first=$("$exe" analyze "$reused")
check "campaign into another run's --stream-out" "different run" \
  "$exe" campaign --domains 1500 --days 1 --seed b --stream-out "$reused"
one_line "different-run refusal" \
  "$exe" campaign --domains 1500 --days 1 --seed b --stream-out "$reused"
if [ "$("$exe" analyze "$reused")" != "$first" ]; then
  echo "FAIL: the refused run changed the first run's archive"
  fails=$((fails + 1))
else
  echo "ok: refused run left the first run's archive"
fi
rm -rf "$reused"

# A run given no directory writes its log to a fresh one under TMPDIR
# and removes it when the run ends, whether it succeeded or failed.
tmp=$(mktemp -d /tmp/tlsharm-tmpdir-XXXXXX)
work=$(mktemp -d /tmp/tlsharm-out-XXXXXX)
tmp_empty() {
  if [ -n "$(ls -A "$tmp")" ]; then
    echo "FAIL: $1 left its run log behind: $(ls -A "$tmp")"
    fails=$((fails + 1))
  else
    echo "ok: $1 left TMPDIR empty"
  fi
}
TMPDIR="$tmp" "$exe" campaign --domains 1500 --days 1 -o "$work/c.csv" >/dev/null
tmp_empty "campaign -o"
# A directory squatting on the CSV's temp name makes the export fail
# after the scan, while the run log exists.
mkdir "$work/fail.csv.tmp"
check "campaign -o failing after the scan" "fail.csv.tmp" \
  env TMPDIR="$tmp" "$exe" campaign --domains 1500 --days 1 -o "$work/fail.csv"
tmp_empty "failed campaign -o"
TMPDIR="$tmp" "$exe" traffic --domains 1500 --users 60 --days 1 >/dev/null
tmp_empty "traffic without --stream-out"
TMPDIR="$tmp" "$exe" experiment --domains 1500 --days 1 t1 >/dev/null
tmp_empty "experiment t1"

# The archive loaders verify the durable frame: the same CSV with its
# frame lines stripped (so rows could be dropped or repeated unseen) is
# refused, not trusted.
grep -v '^#tlsharm-durable\|^#tlsharm-footer' "$work/c.csv" >"$work/unframed.csv"
check "unframed campaign archive" "not a durable" "$exe" analyze "$work/unframed.csv"
one_line "unframed archive refusal" "$exe" analyze "$work/unframed.csv"
rm -rf "$tmp" "$work"

# metrics-report prints only the integers it can read: a counter that is
# text, fractional or past OCaml's int range is refused by its path in
# the file, never printed as 0. Each file carries a valid durable frame
# (header, content, separator newline, footer with the byte count and
# the content's SHA-256 tag), so only the counter is wrong.
metrics=$(mktemp -d /tmp/tlsharm-metrics-XXXXXX)
for v in '"lots"' 2.5 1e300; do
  body="{\"schema\": \"tlsharm-obs/1\", \"counters\": {\"scan.probes\": $v}, \"gauges\": {}, \"histograms\": {}}"
  tag=$(printf '%s' "$body" | sha256sum | cut -c1-16)
  printf '#tlsharm-durable v1\n%s\n#tlsharm-footer v1 bytes=%d block=65536 crc=%s\n' \
    "$body" "${#body}" "$tag" >"$metrics/m.json"
  check "metrics-report counter $v" "counters.scan.probes is not an integer" \
    "$exe" metrics-report "$metrics/m.json"
  one_line "metrics-report counter $v refusal" "$exe" metrics-report "$metrics/m.json"
done
rm -rf "$metrics"

exit "$fails"
