#!/usr/bin/env bash
# Observability smoke: run a multi-worker distributed campaign via the
# CLI with REPRO_OBS=full under an injected fault plan, validate the
# trace-event log against the schema, render the rollup report, and
# require every deterministic artifact (status JSON and the latest
# checkpoint generation) to be byte-identical to the same campaign run
# with REPRO_OBS=off.
# Then kill a campaign mid-wave under REPRO_OBS=events, resume it under
# REPRO_OBS=full, and re-assert byte-identity — observability must stay
# strictly on the wall-clock side of the kill-and-resume contract even
# when toggled between processes.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

# The newest checkpoint generation file of a campaign directory.
latest_ckpt() {
    python - "$1" <<'PY'
import sys
from repro.orchestrator.checkpoint import CheckpointStore
print(CheckpointStore(sys.argv[1], sweep=False).checkpoint_path)
PY
}

SPEC=(--preset tiny --protocol http --phi 0.95 --waves 3
      --reseed-mode interval --reseed-interval 0
      --shards 6 --executor distributed --batch-size 16384)

echo "== reference arm: REPRO_OBS=off, no faults"
python -m repro.orchestrator plan --dir "$WORK/off" "${SPEC[@]}" > /dev/null
REPRO_OBS=off REPRO_DIST_WORKERS=2 \
python -m repro.orchestrator run --dir "$WORK/off"
python -m repro.orchestrator status --dir "$WORK/off" --json \
    > "$WORK/off.json"
[ ! -e "$WORK/off/events.jsonl" ] || {
    echo "REPRO_OBS=off wrote events.jsonl" >&2; exit 1; }

echo "== observed arm: REPRO_OBS=full under a fault plan"
python -m repro.orchestrator plan --dir "$WORK/full" "${SPEC[@]}" > /dev/null
REPRO_OBS=full REPRO_DIST_WORKERS=2 REPRO_FAULT_PLAN="crash@1,stall@4" \
python -m repro.orchestrator run --dir "$WORK/full"
python -m repro.orchestrator status --dir "$WORK/full" --json \
    > "$WORK/full.json"

echo "== validate the trace-event log against the schema"
python -m repro.obs validate --dir "$WORK/full"

echo "== rollup report renders and mentions the fleet"
python -m repro.obs report --dir "$WORK/full" | tee "$WORK/report.txt"
grep -q "per-wave:" "$WORK/report.txt"
grep -q "per-shard:" "$WORK/report.txt"

echo "== fault telemetry reached progress.json"
python - "$WORK/full/progress.json" <<'PY'
import json, sys
progress = json.load(open(sys.argv[1]))
telemetry = progress["executor_telemetry"]
assert telemetry.get("faults_armed", 0) >= 1, telemetry
assert telemetry.get("failures", 0) >= 1, telemetry
print(f"   executor_telemetry: {telemetry}")
PY

echo "== diff deterministic artifacts: off vs full-under-faults"
diff "$WORK/off.json" "$WORK/full.json"
cmp "$(latest_ckpt "$WORK/off")" "$(latest_ckpt "$WORK/full")"

echo "== toggle arm: kill under REPRO_OBS=events, resume under full"
python -m repro.orchestrator plan --dir "$WORK/toggle" "${SPEC[@]}" \
    > /dev/null
REPRO_OBS=events REPRO_DIST_WORKERS=2 \
REPRO_FAULT_PLAN="stall@*:attempts=*:delay=0.5" \
python -m repro.orchestrator run --dir "$WORK/toggle" &
PID=$!
for _ in $(seq 1 120); do
    compgen -G "$WORK/toggle/checkpoint.*.npz" > /dev/null && break
    sleep 0.5
done
compgen -G "$WORK/toggle/checkpoint.*.npz" > /dev/null || {
    echo "no checkpoint appeared within 60s" >&2; exit 1; }
sleep 1
kill -TERM "$PID" 2>/dev/null || true
set +e
wait "$PID"
echo "   interrupted run exited with $?"
set -e
REPRO_OBS=full REPRO_DIST_WORKERS=2 \
python -m repro.orchestrator resume --dir "$WORK/toggle"
python -m repro.orchestrator status --dir "$WORK/toggle" --json \
    > "$WORK/toggle.json"
diff "$WORK/off.json" "$WORK/toggle.json"
cmp "$(latest_ckpt "$WORK/off")" "$(latest_ckpt "$WORK/toggle")"
python -m repro.obs validate --dir "$WORK/toggle"
python - "$WORK/toggle/events.jsonl" <<'PY'
import json, sys
runs = {json.loads(line)["run"] for line in open(sys.argv[1])}
assert len(runs) == 2, f"expected 2 run ids (kill + resume), got {len(runs)}"
print(f"   events.jsonl holds {len(runs)} run ids across the kill")
PY

echo "obs smoke OK: events validate, artifacts byte-identical off/full/toggled"
