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
# TLSHARM_JOBS is parsed and validated exactly like --jobs.
check "non-integer TLSHARM_JOBS" "TLSHARM_JOBS" \
  env TLSHARM_JOBS=abc "$exe" campaign --domains 1500 --days 1
check "zero TLSHARM_JOBS" "--jobs must be at least 1 (got 0)" \
  env TLSHARM_JOBS=0 "$exe" campaign --domains 1500 --days 1

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

# A run log of the previous stream schema (tlsharm-stream/1, written
# beside a separate checkpoint store) must be refused by schema, not
# resumed or streamed into. The manifest is framed by hand the way the
# durable-file writer frames it.
old=$(mktemp -d /tmp/tlsharm-oldstream-XXXXXX)
printf 'schema=tlsharm-stream/1\nstart_day=0\nn_days=2\n' >"$old/body"
{
  printf '#tlsharm-durable v1\n'
  cat "$old/body"
  printf '\n#tlsharm-footer v1 bytes=%d block=65536 crc=%s\n' \
    "$(wc -c <"$old/body")" "$(sha256sum "$old/body" | cut -c1-16)"
} >"$old/manifest"
rm "$old/body"
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

exit "$fails"
