#!/bin/sh
# End-to-end smoke test of the CLI tool chain:
# genbench -> train -> detect -> score, plus the serving front end and the
# observability surfaces (ENGINE_STATS / SERVE_STATS JSON, Chrome trace
# JSON, structured log JSON lines, Prometheus exposition, wire trace
# propagation: traceparent in -> X-Trace-Id out -> /tracez?trace= +
# /logz?trace= correlation) — every machine-readable line is piped
# through a real parser, not just grepped.
set -e
BIN="$1"
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
"$BIN/tools/hsd_genbench" "$OUT" --bench 5 --hs 8 --nhs 30 --width 24000 --height 24000 --sites 8
"$BIN/tools/hsd_train" "$OUT/training_clips.txt" "$OUT/model.txt"
"$BIN/tools/hsd_detect" "$OUT/model.txt" "$OUT/layout.gds" "$OUT/report.txt" \
  --trace-out "$OUT/detect_trace.json" \
  --log-out "$OUT/detect_log.jsonl" \
  --model-stats-out "$OUT/detect_model.json" | tee "$OUT/detect.out"
# The model-quality dump is valid JSON carrying per-cluster sketches and —
# because hsd_train persists a margin baseline with the model — the
# per-cluster PSI drift report.
python3 -m json.tool < "$OUT/detect_model.json" > /dev/null
grep -q '"clusters"' "$OUT/detect_model.json"
grep -q '"drift"' "$OUT/detect_model.json"
# ENGINE_STATS leads with the model fingerprint (16 hex digits); the
# model-quality dump, SERVE_STATS and /modelz below stamp the same one.
MODEL_FP=$(grep '^ENGINE_STATS ' "$OUT/detect.out" | sed 's/^ENGINE_STATS //' \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["model"])')
echo "$MODEL_FP" | grep -Eq '^[0-9a-f]{16}$'
grep -q "\"fingerprint\": \"$MODEL_FP\"" "$OUT/detect_model.json"
grep -q '"psi"' "$OUT/detect_model.json"
# The structured log sink is JSON lines: every line parses, and the
# evaluator lifecycle records are present.
python3 -c 'import json,sys; [json.loads(l) for l in sys.stdin if l.strip()]' \
  < "$OUT/detect_log.jsonl"
grep -q '"eval done"' "$OUT/detect_log.jsonl"
"$BIN/tools/hsd_score" "$OUT/report.txt" "$OUT/golden_hotspots.txt" --layout "$OUT/layout.gds" | grep -q accuracy
# Tiled detection must emit a report byte-identical to the untiled one
# (the deterministic-merge contract), with per-tile "tile<k>/<stage>"
# entries plus one roll-up per stage in the ENGINE_STATS JSON: every key
# once, and each roll-up the sum of its tiles.
"$BIN/tools/hsd_detect" "$OUT/model.txt" "$OUT/layout.gds" "$OUT/report_tiled.txt" \
  --tile-size 8000 --threads 2 | tee "$OUT/detect_tiled.out"
cmp "$OUT/report.txt" "$OUT/report_tiled.txt"
grep '^ENGINE_STATS ' "$OUT/detect_tiled.out" | sed 's/^ENGINE_STATS //' \
  | python3 -c '
import json, re, sys
pairs = json.load(sys.stdin, object_pairs_hook=lambda p: p)
keys = [k for k, _ in pairs]
assert len(keys) == len(set(keys)), "duplicate ENGINE_STATS keys"
stats = dict(pairs)
tiles = [dict(v)["items"] for k, v in pairs
         if re.fullmatch(r"tile[0-9]+/eval/svm", k)]
assert len(tiles) > 1, "expected several tile<k>/eval/svm entries"
assert dict(stats["eval/svm"])["items"] == sum(tiles), "eval/svm roll-up"
'
grep -q '"tile0/extract/screen"' "$OUT/detect_tiled.out"
grep -q '"eval/svm"' "$OUT/detect_tiled.out"
# The halo follows from the model: --halo is no flag, and naming it exits
# 2 naming it, with no report written.
rc=0
"$BIN/tools/hsd_detect" "$OUT/model.txt" "$OUT/layout.gds" "$OUT/bad.txt" \
  --tile-size 8000 --halo 100 2>"$OUT/halo_err.txt" || rc=$?
if [ "$rc" -ne 2 ] || [ -e "$OUT/bad.txt" ]; then
  echo "hsd_detect --halo 100 exited $rc, not 2, or wrote a report" >&2
  exit 1
fi
grep -q "unknown flag '--halo'" "$OUT/halo_err.txt"
# The tile size must be a whole number in range: an overflowing, a
# fractional or a negative value exits non-zero naming its flag, and no
# report is written (before the check, 1e300 and 0.5 ran untiled).
for bad in tile-size:1e300 tile-size:0.5 tile-size:-1; do
  flag=${bad%%:*}
  value=${bad#*:}
  if "$BIN/tools/hsd_detect" "$OUT/model.txt" "$OUT/layout.gds" \
    "$OUT/bad_number.txt" "--$flag" "$value" 2>"$OUT/number_err.txt"; then
    echo "hsd_detect --$flag $value unexpectedly succeeded" >&2
    exit 1
  fi
  grep -q "'$flag'" "$OUT/number_err.txt"
  if [ -e "$OUT/bad_number.txt" ]; then
    echo "hsd_detect --$flag $value wrote a report" >&2
    exit 1
  fi
done
# A thread count beyond 1024 is refused before any thread starts.
if "$BIN/tools/hsd_serve" "$OUT/model.txt" "$OUT/layout.gds" \
  --threads 5000 2>"$OUT/threads_err.txt"; then
  echo "hsd_serve --threads 5000 unexpectedly succeeded" >&2
  exit 1
fi
grep -q "'threads'" "$OUT/threads_err.txt"
# hsd_serve's counts, byte cap and ports are whole numbers in range too:
# each bad value exits 2 naming its flag before any work (before the
# check, --requests 2.5 ran 2 requests and --admin-port 1.5 bound port 1).
for bad in requests:2.5 requests:-1 max-queue-depth:1.5 max-body-mb:1e20 \
  port:70000 port:1.5 admin-port:1.5 admin-port:-1; do
  flag=${bad%%:*}
  value=${bad#*:}
  rc=0
  "$BIN/tools/hsd_serve" "$OUT/model.txt" "$OUT/layout.gds" \
    "--$flag" "$value" >/dev/null 2>"$OUT/number_err.txt" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "hsd_serve --$flag $value exited $rc, not 2" >&2
    exit 1
  fi
  grep -q "'$flag'" "$OUT/number_err.txt"
done
# Real-valued flags are parsed strictly, and hsd_train's thread count is
# a whole number in [0, 1024]: each bad value exits 2 naming its flag
# before any file is read — the model and clip-set paths here do not
# exist (before the check, --bias abc ran as --bias 0 and hsd_train
# --threads -1 failed in training with a length error).
for bad in hsd_detect:bias:abc hsd_detect:bias:1e400 hsd_serve:deadline-ms:abc \
  hsd_serve:linger-ms:5x hsd_fix:bias:nan hsd_fix:min-width:abc \
  hsd_fix:min-space:1.5 hsd_train:threads:-1 hsd_train:threads:2.5 \
  hsd_train:threads:5000; do
  tool=${bad%%:*}
  rest=${bad#*:}
  flag=${rest%%:*}
  value=${rest#*:}
  rc=0
  "$BIN/tools/$tool" "$OUT/no_such_input.txt" "$OUT/no_such_layout.gds" \
    "$OUT/bad_out.txt" "--$flag" "$value" >/dev/null \
    2>"$OUT/number_err.txt" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "$tool --$flag $value exited $rc, not 2" >&2
    exit 1
  fi
  grep -q "'$flag'" "$OUT/number_err.txt"
done
# Flag numbers follow the one number grammar (text::parseNumber): a
# blank, a sign or a hex float is not a number. Before, the C library's
# conversion read " 1" as 1 and 0x1p3 as 8.
for value in ' 1' 0x1p3 +1; do
  rc=0
  "$BIN/tools/hsd_detect" "$OUT/no_such_input.txt" "$OUT/no_such_layout.gds" \
    "$OUT/bad_out.txt" --bias "$value" >/dev/null \
    2>"$OUT/number_err.txt" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "hsd_detect --bias '$value' exited $rc, not 2" >&2
    exit 1
  fi
  grep -q "'bias'" "$OUT/number_err.txt"
done
# hsd_genbench checks its numbers the same way (--hs abc used to run as
# --hs 0 and write no hotspot clips), and hsd_scrape its port (80abc used
# to mean 80).
rc=0
"$BIN/tools/hsd_genbench" "$OUT" --hs abc >/dev/null \
  2>"$OUT/number_err.txt" || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "hsd_genbench --hs abc exited $rc, not 2" >&2
  exit 1
fi
grep -q "'hs'" "$OUT/number_err.txt"
rc=0
"$BIN/tools/hsd_scrape" 127.0.0.1 80abc / >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "hsd_scrape with port 80abc exited $rc, not 2" >&2
  exit 1
fi
# A flag the tool does not declare — a removed one or a typo — exits 2
# naming it before any file is read (neither input exists here). Before
# the check, --tile-szie 8000 ran untiled.
for bad in hsd_detect:halo:100 hsd_serve:halo:100 hsd_detect:tile-threads:2.5 \
  hsd_serve:tile-threads:2 hsd_detect:tile-szie:8000 hsd_serve:tile-szie:8000 \
  hsd_train:halo:100; do
  tool=${bad%%:*}
  rest=${bad#*:}
  flag=${rest%%:*}
  value=${rest#*:}
  rc=0
  "$BIN/tools/$tool" "$OUT/no_such_input.txt" "$OUT/no_such_layout.gds" \
    "$OUT/bad_out.txt" "--$flag" "$value" >/dev/null \
    2>"$OUT/flag_err.txt" || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "$tool --$flag $value exited $rc, not 2" >&2
    exit 1
  fi
  grep -q "unknown flag '--$flag'" "$OUT/flag_err.txt"
done
# A hostile model file (line 5, the kernel count, claims far more kernels
# than its bytes hold) must fail typed under an address-space limit, not
# with bad_alloc.
sed '5s/.*/99999999999999/' "$OUT/model.txt" > "$OUT/hostile_model.txt"
if (ulimit -v 4000000; "$BIN/tools/hsd_detect" "$OUT/hostile_model.txt" \
  "$OUT/layout.gds" "$OUT/hostile.txt") 2>"$OUT/hostile_err.txt"; then
  echo "hostile model unexpectedly loaded" >&2
  exit 1
fi
if grep -q 'bad_alloc' "$OUT/hostile_err.txt"; then
  cat "$OUT/hostile_err.txt" >&2
  exit 1
fi
"$BIN/tools/hsd_fix" "$OUT/model.txt" "$OUT/layout.gds" "$OUT/fixed.gds"
test -s "$OUT/fixed.gds"
# The ENGINE_STATS payload and the trace file must be valid JSON.
grep '^ENGINE_STATS ' "$OUT/detect.out" | sed 's/^ENGINE_STATS //' \
  | python3 -m json.tool > /dev/null
python3 -m json.tool < "$OUT/detect_trace.json" > /dev/null
# The trace must contain per-batch stage spans.
grep -q '"cat": "stage"' "$OUT/detect_trace.json"
# Serving front end: concurrent repeated requests must agree byte-for-byte
# (reportsIdentical) and hit the shared cache; an already-expired deadline
# must surface typed timeouts, not a crash. --trace-out/--metrics-out
# exercise the full observability path end to end.
"$BIN/tools/hsd_serve" "$OUT/model.txt" "$OUT/layout.gds" \
  --requests 4 --workers 2 --threads 2 \
  --trace-out "$OUT/serve_trace.json" --metrics-out "$OUT/serve.prom" \
  | tee "$OUT/serve.out"
grep -q '"reportsIdentical": true' "$OUT/serve.out"
grep '^SERVE_STATS ' "$OUT/serve.out" | sed 's/^SERVE_STATS //' \
  | python3 -m json.tool > /dev/null
grep '^SERVE_STATS ' "$OUT/serve.out" | grep -q "\"model\": \"$MODEL_FP\""
python3 -m json.tool < "$OUT/serve_trace.json" > /dev/null
# The serve trace must carry named workers and per-request lifecycle spans.
grep -q 'serve-worker-' "$OUT/serve_trace.json"
grep -q 'serve/queued' "$OUT/serve_trace.json"
grep -q 'serve/run' "$OUT/serve_trace.json"
# Prometheus exposition: HELP/TYPE headers present, every submitted
# request accounted for in the run-latency histogram (_count == 4).
grep -q '^# HELP hsd_serve_queue_depth ' "$OUT/serve.prom"
grep -q '^# TYPE hsd_serve_run_seconds histogram' "$OUT/serve.prom"
grep -q '^hsd_serve_requests_submitted_total 4$' "$OUT/serve.prom"
grep -q '^hsd_serve_run_seconds_count 4$' "$OUT/serve.prom"
grep -q '^hsd_serve_requests_total{status="ok"} 4$' "$OUT/serve.prom"
"$BIN/tools/hsd_serve" "$OUT/model.txt" "$OUT/layout.gds" \
  --requests 3 --workers 2 --deadline-ms 0.001 \
  | grep -q '"timeout": 3'
# The layout name comes from the input file: rename the top cell (the
# first STRNAME record) to q"a\b and SERVE_STATS must still parse, with
# the name intact.
python3 - "$OUT/layout.gds" "$OUT/quoted.gds" <<'EOF'
import struct, sys
data = open(sys.argv[1], 'rb').read()
out, pos, renamed = bytearray(), 0, False
while pos + 4 <= len(data):
    n = struct.unpack('>H', data[pos:pos + 2])[0]
    if n < 4:
        break
    rec = data[pos:pos + n]
    if not renamed and rec[2:4] == b'\x06\x06':
        name = b'q"a\\b\x00'
        rec = struct.pack('>H', 4 + len(name)) + b'\x06\x06' + name
        renamed = True
    out += rec
    pos += n
assert renamed
open(sys.argv[2], 'wb').write(out)
EOF
"$BIN/tools/hsd_serve" "$OUT/model.txt" "$OUT/quoted.gds" --requests 1 \
  | grep '^SERVE_STATS ' | sed 's/^SERVE_STATS //' \
  | python3 -c 'import json,sys
assert json.load(sys.stdin)["layout"] == "q\"a\\b"'
# Tiled serving: each request fans its tiles across the context pool;
# concurrent tiled requests must still agree byte-for-byte.
"$BIN/tools/hsd_serve" "$OUT/model.txt" "$OUT/layout.gds" \
  --requests 4 --workers 2 --contexts 3 --threads 2 --tile-size 8000 \
  | grep -q '"reportsIdentical": true'
# Live admin surface: hsd_serve with --admin-port 0 picks an ephemeral
# port and prints it; --linger-ms keeps the process (and /readyz "ready")
# up after the batch so we can scrape every endpoint with the curl-free
# hsd_scrape client. SIGTERM then triggers the graceful drain — the
# process must still exit 0 with SERVE_STATS printed and both
# observability files flushed.
"$BIN/tools/hsd_serve" "$OUT/model.txt" "$OUT/layout.gds" \
  --requests 2 --workers 2 --admin-port 0 --linger-ms 60000 \
  --trace-out "$OUT/admin_trace.json" --metrics-out "$OUT/admin.prom" \
  --log-out "$OUT/serve_log.jsonl" \
  --model-stats-out "$OUT/serve_model.json" \
  > "$OUT/admin_serve.out" 2>&1 &
SERVE_PID=$!
tries=0
while ! grep -q '^ADMIN_PORT ' "$OUT/admin_serve.out" 2>/dev/null; do
  tries=$((tries + 1))
  if [ "$tries" -gt 150 ]; then
    echo "hsd_serve never printed ADMIN_PORT" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.2
done
PORT=$(sed -n 's/^ADMIN_PORT //p' "$OUT/admin_serve.out" | head -1)
"$BIN/tools/hsd_scrape" 127.0.0.1 "$PORT" /healthz | grep -q '^ok$'
"$BIN/tools/hsd_scrape" 127.0.0.1 "$PORT" /readyz | grep -q '^ready$'
"$BIN/tools/hsd_scrape" 127.0.0.1 "$PORT" /metrics > "$OUT/scraped.prom"
grep -q '^# TYPE hsd_serve_run_seconds histogram' "$OUT/scraped.prom"
grep -q '^hsd_serve_requests_submitted_total 2$' "$OUT/scraped.prom"
grep -q '^hsd_admin_scrapes_total{endpoint="/metrics"} 1$' "$OUT/scraped.prom"
"$BIN/tools/hsd_scrape" 127.0.0.1 "$PORT" /statsz > "$OUT/statsz.json"
python3 -m json.tool < "$OUT/statsz.json" > /dev/null
grep -q '"model"' "$OUT/statsz.json"
"$BIN/tools/hsd_scrape" 127.0.0.1 "$PORT" '/tracez?limit=100' > "$OUT/tracez.json"
python3 -m json.tool < "$OUT/tracez.json" > /dev/null
grep -q '"enabled": true' "$OUT/tracez.json"
# The structured-log and SLO admin surfaces mount alongside /tracez.
"$BIN/tools/hsd_scrape" 127.0.0.1 "$PORT" '/logz?limit=100' > "$OUT/logz.jsonl"
python3 -c 'import json,sys; [json.loads(l) for l in sys.stdin if l.strip()]' \
  < "$OUT/logz.jsonl"
grep -q '"enabled": true' "$OUT/logz.jsonl"
"$BIN/tools/hsd_scrape" 127.0.0.1 "$PORT" /sloz > "$OUT/sloz.json"
python3 -m json.tool < "$OUT/sloz.json" > /dev/null
grep -q '"windows"' "$OUT/sloz.json"
# The model-quality plane rides the same admin server: /modelz serves the
# per-cluster margin sketches plus the drift report, the ?cluster= filter
# accepts the always-present feedback pseudo-cluster, and junk parameters
# are typed 400s.
"$BIN/tools/hsd_scrape" 127.0.0.1 "$PORT" /modelz > "$OUT/modelz.json"
python3 -m json.tool < "$OUT/modelz.json" > /dev/null
grep -q '"enabled": true' "$OUT/modelz.json"
grep -q '"psiThreshold"' "$OUT/modelz.json"
grep -q "\"fingerprint\": \"$MODEL_FP\"" "$OUT/modelz.json"
"$BIN/tools/hsd_scrape" 127.0.0.1 "$PORT" '/modelz?cluster=feedback&limit=8' \
  | python3 -m json.tool > /dev/null
if "$BIN/tools/hsd_scrape" 127.0.0.1 "$PORT" '/modelz?limit=abc' \
  > /dev/null 2>&1; then
  echo "modelz?limit=abc unexpectedly succeeded" >&2
  exit 1
fi
if "$BIN/tools/hsd_scrape" 127.0.0.1 "$PORT" '/modelz?cluster=no-such-cluster' \
  > /dev/null 2>&1; then
  echo "modelz?cluster=no-such-cluster unexpectedly succeeded" >&2
  exit 1
fi
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q '"reportsIdentical": true' "$OUT/admin_serve.out"
grep '^SERVE_STATS ' "$OUT/admin_serve.out" | sed 's/^SERVE_STATS //' \
  | python3 -m json.tool > /dev/null
python3 -m json.tool < "$OUT/admin_trace.json" > /dev/null
grep -q '^# TYPE hsd_serve_run_seconds histogram' "$OUT/admin.prom"
# The --model-stats-out dump flushed on drain, and the per-cluster verdict
# counters joined the Prometheus exposition.
python3 -m json.tool < "$OUT/serve_model.json" > /dev/null
grep -q '"clusters"' "$OUT/serve_model.json"
grep -q "\"fingerprint\": \"$MODEL_FP\"" "$OUT/serve_model.json"
grep -q 'hsd_model_verdicts_total' "$OUT/admin.prom"
# The --log-out sink flushed on drain: JSON lines, evaluator lifecycle in.
python3 -c 'import json,sys; [json.loads(l) for l in sys.stdin if l.strip()]' \
  < "$OUT/serve_log.jsonl"
grep -q '"eval done"' "$OUT/serve_log.jsonl"
# Detection over the wire: hsd_serve with --port 0 and --requests 0 runs a
# pure wire server (no in-process batch). POST the layout with hsd_scrape's
# POST mode; the streamed report must be byte-identical to the offline
# hsd_detect report, monolithic AND tiled, and the wire-plane counters must
# show up in the admin /metrics exposition. SIGTERM while a POST is in
# flight must drain gracefully: the in-flight request completes with the
# identical report and the process exits 0.
"$BIN/tools/hsd_serve" "$OUT/model.txt" "$OUT/layout.gds" \
  --requests 0 --workers 2 --port 0 --admin-port 0 --linger-ms 60000 \
  > "$OUT/wire_serve.out" 2>&1 &
WIRE_PID=$!
tries=0
while ! grep -q '^DETECT_PORT ' "$OUT/wire_serve.out" 2>/dev/null; do
  tries=$((tries + 1))
  if [ "$tries" -gt 150 ]; then
    echo "hsd_serve never printed DETECT_PORT" >&2
    kill "$WIRE_PID" 2>/dev/null || true
    exit 1
  fi
  sleep 0.2
done
DPORT=$(sed -n 's/^DETECT_PORT //p' "$OUT/wire_serve.out" | head -1)
APORT=$(sed -n 's/^ADMIN_PORT //p' "$OUT/wire_serve.out" | head -1)
"$BIN/tools/hsd_scrape" 127.0.0.1 "$DPORT" /detect \
  --post "$OUT/layout.gds" > "$OUT/wire_report.txt"
cmp "$OUT/report.txt" "$OUT/wire_report.txt"
"$BIN/tools/hsd_scrape" 127.0.0.1 "$DPORT" '/detect?tile-size=8000' \
  --post "$OUT/layout.gds" > "$OUT/wire_report_tiled.txt"
cmp "$OUT/report.txt" "$OUT/wire_report_tiled.txt"
# The wire-plane metrics ride the same admin /metrics exposition.
"$BIN/tools/hsd_scrape" 127.0.0.1 "$APORT" /metrics > "$OUT/wire.prom"
grep -q '^hsd_detect_requests_total{status="200"} 2$' "$OUT/wire.prom"
grep -q '^# TYPE hsd_detect_seconds histogram' "$OUT/wire.prom"
grep -q '^hsd_detect_seconds_count 2$' "$OUT/wire.prom"
# The /statsz blob gained a "detect" section (valid JSON overall).
"$BIN/tools/hsd_scrape" 127.0.0.1 "$APORT" /statsz > "$OUT/wire_statsz.json"
python3 -m json.tool < "$OUT/wire_statsz.json" > /dev/null
grep -q '"detect"' "$OUT/wire_statsz.json"
# End-to-end trace correlation over the wire: POST with a caller-minted
# W3C traceparent plus the X-Profile opt-in; the report stays
# byte-identical, the same 32-hex id comes back in the X-Trace-Id
# response header (hsd_scrape -v), the X-Profile header parses as the
# per-request profile JSON, and the id filters spans in /tracez?trace=
# and records in /logz?trace= on the admin plane. --timeout-ms rides
# along to exercise the client deadline path.
TRACE_ID=0af7651916cd43dd8448eb211c80319c
"$BIN/tools/hsd_scrape" 127.0.0.1 "$DPORT" /detect \
  --post "$OUT/layout.gds" --timeout-ms 30000 -v \
  -H "traceparent: 00-${TRACE_ID}-00f067aa0ba902b7-01" \
  -H "X-Profile: 1" \
  > "$OUT/wire_traced.txt" 2> "$OUT/wire_traced_hdrs.txt"
cmp "$OUT/report.txt" "$OUT/wire_traced.txt"
grep -qi "x-trace-id: ${TRACE_ID}" "$OUT/wire_traced_hdrs.txt"
sed -n 's/^< [Xx]-[Pp]rofile: //p' "$OUT/wire_traced_hdrs.txt" | head -1 \
  | python3 -m json.tool > /dev/null
"$BIN/tools/hsd_scrape" 127.0.0.1 "$APORT" "/tracez?trace=${TRACE_ID}" \
  > "$OUT/wire_tracez.json"
python3 -m json.tool < "$OUT/wire_tracez.json" > /dev/null
grep -q "$TRACE_ID" "$OUT/wire_tracez.json"
grep -q 'serve/run' "$OUT/wire_tracez.json"
"$BIN/tools/hsd_scrape" 127.0.0.1 "$APORT" "/logz?trace=${TRACE_ID}" \
  > "$OUT/wire_logz.jsonl"
python3 -c 'import json,sys; [json.loads(l) for l in sys.stdin if l.strip()]' \
  < "$OUT/wire_logz.jsonl"
grep -q "$TRACE_ID" "$OUT/wire_logz.jsonl"
grep -q 'request complete' "$OUT/wire_logz.jsonl"
# Junk snapshot-query parameters are typed 400s, not silent defaults.
if "$BIN/tools/hsd_scrape" 127.0.0.1 "$APORT" '/tracez?limit=abc' \
  > /dev/null 2>&1; then
  echo "tracez?limit=abc unexpectedly succeeded" >&2
  exit 1
fi
if "$BIN/tools/hsd_scrape" 127.0.0.1 "$APORT" '/logz?trace=nothex' \
  > /dev/null 2>&1; then
  echo "logz?trace=nothex unexpectedly succeeded" >&2
  exit 1
fi
# SIGTERM-during-POST drain: start a POST in the background, send TERM,
# and require both the in-flight response (byte-identical) and exit 0.
"$BIN/tools/hsd_scrape" 127.0.0.1 "$DPORT" /detect \
  --post "$OUT/layout.gds" > "$OUT/wire_drain.txt" &
SCRAPE_PID=$!
sleep 0.1
kill -TERM "$WIRE_PID"
wait "$SCRAPE_PID"
wait "$WIRE_PID"
cmp "$OUT/report.txt" "$OUT/wire_drain.txt"
grep '^SERVE_STATS ' "$OUT/wire_serve.out" | sed 's/^SERVE_STATS //' \
  | python3 -m json.tool > /dev/null
echo "tools smoke OK"
