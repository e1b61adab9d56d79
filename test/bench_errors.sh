#!/bin/sh
# Bad bench input must come back as one line naming the problem, with a
# nonzero exit — never a backtrace, a silently wrong file or a report
# that blames the wrong thing. Usage: bench_errors.sh BENCH_EXE BENCH_JSON
set -u
exe=$(realpath "$1")
good=$(realpath "$2")
fails=0

# check DESC NEEDLE CMD...: CMD must fail with exactly one line of
# output containing NEEDLE.
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
  if [ "$(printf '%s\n' "$out" | wc -l)" -ne 1 ]; then
    echo "FAIL: $desc: wanted one line, got: $out"
    fails=$((fails + 1))
    return
  fi
  case "$out" in
  *"$needle"*) echo "ok: $desc" ;;
  *)
    echo "FAIL: $desc: wanted \"$needle\" in: $out"
    fails=$((fails + 1))
    ;;
  esac
}

dir=$(mktemp -d "${TMPDIR:-/tmp}/tlsharm-bench-XXXXXX")
cd "$dir" || exit 1

# A timing budget below 1 ms would time nothing and write NaN figures.
check "zero TLSHARM_BENCH_MS" 'bench: TLSHARM_BENCH_MS="0" must be >= 1' \
  env TLSHARM_BENCH_MS=0 TLSHARM_BENCH_OUT="$dir/out.json" "$exe" micro
check "negative TLSHARM_BENCH_MS" 'bench: TLSHARM_BENCH_MS="-5" must be >= 1' \
  env TLSHARM_BENCH_MS=-5 TLSHARM_BENCH_OUT="$dir/out.json" "$exe" micro
check "non-integer TLSHARM_BENCH_MS" 'bench: TLSHARM_BENCH_MS="abc" is not an integer' \
  env TLSHARM_BENCH_MS=abc TLSHARM_BENCH_OUT="$dir/out.json" "$exe" micro
if [ -e "$dir/out.json" ]; then
  echo "FAIL: a refused budget still wrote $dir/out.json"
  fails=$((fails + 1))
fi

check "unknown entry" "available: micro check-baseline" "$exe" parallel

# A damaged results file is reported as damaged, with its path.
head -c 200 "$good" >truncated.json
check "truncated results" "check-baseline: truncated.json: checksum footer missing" \
  env TLSHARM_BENCH_OUT=truncated.json "$exe" check-baseline
sed '3s/"/~/' "$good" >corrupt.json
check "corrupt results" "check-baseline: corrupt.json: corrupt" \
  env TLSHARM_BENCH_OUT=corrupt.json "$exe" check-baseline
check "missing results" "check-baseline: missing.json: No such file" \
  env TLSHARM_BENCH_OUT=missing.json "$exe" check-baseline
# Results must be framed: a headerless file is refused by name, never
# parsed as if it were checksummed.
printf '{"schema": "tlsharm-bench/1"}\n' >empty.json
check "headerless results" 'check-baseline: empty.json: not a durable (checksummed) file' \
  env TLSHARM_BENCH_OUT=empty.json "$exe" check-baseline
# The same JSON in a valid frame (header, content, separator newline,
# footer with the byte count and the block's SHA-256 tag) reaches the
# kernel check.
body='{"schema": "tlsharm-bench/1"}'
tag=$(printf '%s' "$body" | sha256sum | cut -c1-16)
printf '#tlsharm-durable v1\n%s\n#tlsharm-footer v1 bytes=%d block=65536 crc=%s\n' \
  "$body" "${#body}" "$tag" >framed.json
check "results without kernels" 'check-baseline: framed.json: no "kernels" section' \
  env TLSHARM_BENCH_OUT=framed.json "$exe" check-baseline

# An operation allocating more than 2% over its baseline budget fails the
# check by name: here the good results checked against a baseline that
# is the same file with every budget cut to one word.
body=$(sed '1d;$d' "$good" | sed 's/"minor_words_per_op": [0-9.]*/"minor_words_per_op": 1/')
tag=$(printf '%s' "$body" | sha256sum | cut -c1-16)
printf '#tlsharm-durable v1\n%s\n#tlsharm-footer v1 bytes=%d block=65536 crc=%s\n' \
  "$body" "${#body}" "$tag" >BENCH_baseline.json
check "allocation over budget" 'check-baseline: "handshake/full-ecdhe-fresh" allocates' \
  env TLSHARM_BENCH_OUT="$good" "$exe" check-baseline

cd / && rm -rf "$dir"
exit "$fails"
