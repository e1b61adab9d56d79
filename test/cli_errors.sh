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

corrupt=$(mktemp /tmp/tlsharm-corrupt-XXXXXX.csv)
printf 'not,a,campaign\n' >"$corrupt"
check "corrupt archive" "campaign:" "$exe" analyze "$corrupt"
rm -f "$corrupt"

# A checkpoint written before the single campaign runner (format
# version 1, with its serial/ stream) must be refused by version, not
# resumed or re-scanned beside the stale stream. The manifest is framed
# by hand the way the durable-file writer frames it.
old=$(mktemp -d /tmp/tlsharm-oldckpt-XXXXXX)
printf 'version=1\nmode=campaign\nseed=tlsharm\nn_domains=1500\ndays=2\njobs=1\nfault_profile=none\nretries=3\ndeadline=30\noutput=%s/c.csv\nstream_out=\n' \
  "$old" >"$old/body"
mkdir -p "$old/serial"
{
  printf '#tlsharm-durable v1\n'
  cat "$old/body"
  printf '\n#tlsharm-footer v1 bytes=%d block=65536 crc=%s\n' \
    "$(wc -c <"$old/body")" "$(sha256sum "$old/body" | cut -c1-16)"
} >"$old/manifest"
rm "$old/body"
check "resume of a version-1 checkpoint" "unsupported checkpoint version 1" \
  "$exe" resume "$old"
check "campaign into a version-1 checkpoint" "unsupported checkpoint version 1" \
  "$exe" campaign --domains 1500 --days 2 -o "$old/c.csv" --checkpoint-dir "$old"
test -e "$old/c.csv" && {
  echo "FAIL: a version-1 checkpoint was scanned anyway"
  fails=$((fails + 1))
}
rm -rf "$old"

exit "$fails"
