#!/usr/bin/env bash
# End-to-end smoke for the compose cluster (the CI `serve` job): build
# the image, stand up 2 TLS shards behind the TLS gateway, then drive
# the production loop from outside — authenticated query scattered to
# both shards, SSE subscription, live ingest producing a diff event,
# 401 unauthorized on a missing token, 400 bad_request for an insert a
# shard refuses, and a non-zero /metrics surface. Compose logs
# land in compose-logs.txt for the failure artifact.
set -euo pipefail
cd "$(dirname "$0")/.."

GW="${GW:-https://localhost:8443}"
GW_TOKEN="${GATEWAY_TOKEN:-gw-secret}"
AUTH=(-H "Authorization: Bearer $GW_TOKEN")
CA=(--cacert certs/ca.pem)

./scripts/gen-certs.sh certs
docker compose up -d --build

cleanup() {
	docker compose logs --no-color > compose-logs.txt 2>&1 || true
	docker compose down -v >/dev/null 2>&1 || true
}
trap cleanup EXIT

echo "smoke: waiting for the gateway to become ready"
ready=""
for _ in $(seq 1 60); do
	if curl -s "${CA[@]}" "$GW/readyz" 2>/dev/null | grep -q ready; then
		ready=1
		break
	fi
	sleep 1
done
[ -n "$ready" ] || { echo "smoke: gateway never became ready"; exit 1; }

echo "smoke: unauthenticated query is refused"
code=$(curl -s "${CA[@]}" -o smoke-body.txt -w '%{http_code}' -X POST "$GW/v1/query" -d '{}')
[ "$code" = "401" ] || { echo "smoke: want 401 without token, got $code"; exit 1; }
grep -q '"code":"unauthorized"' smoke-body.txt || { echo "smoke: 401 body: $(cat smoke-body.txt)"; exit 1; }

echo "smoke: ingest seeds the cluster"
seed='{"updates":[
  {"oid":1,"verts":[[0,0,0],[10,10,100]]},
  {"oid":2,"verts":[[5,0,0],[5,10,100]]},
  {"oid":3,"verts":[[1,1,0],[9,9,100]]}]}'
curl -sS "${CA[@]}" "${AUTH[@]}" -X POST "$GW/v1/ingest" -d "$seed" \
	| grep -q '"inserted":true' || { echo "smoke: ingest failed"; exit 1; }

echo "smoke: an insert a shard refuses is the client's fault"
code=$(curl -s "${CA[@]}" "${AUTH[@]}" -o smoke-body.txt -w '%{http_code}' -X POST "$GW/v1/ingest" \
	-d '{"updates":[{"oid":4,"verts":[[0,0,0]]}]}')
[ "$code" = "400" ] && grep -q '"code":"bad_request"' smoke-body.txt \
	|| { echo "smoke: one-vertex insert: $code $(cat smoke-body.txt)"; exit 1; }

echo "smoke: TLS query scatters to both shards"
q='{"kind":"NN@","query_oid":1,"oid":2,"tb":0,"te":50,"t":50}'
out=$(curl -sS "${CA[@]}" "${AUTH[@]}" -X POST "$GW/v1/query" -d "$q")
echo "$out" | grep -q '"shards":2' || { echo "smoke: expected a 2-shard answer, got: $out"; exit 1; }

echo "smoke: SSE subscription observes a live ingest"
rm -f smoke-sse.txt
curl -sS -N --max-time 25 "${CA[@]}" "${AUTH[@]}" \
	"$GW/v1/subscribe?kind=NN@&query_oid=1&oid=2&tb=0&te=100&t=50" > smoke-sse.txt &
sse_pid=$!
sleep 2
move='{"updates":[{"oid":2,"verts":[[500,500,60],[500,510,100]]}]}'
curl -sS "${CA[@]}" "${AUTH[@]}" -X POST "$GW/v1/ingest" -d "$move" >/dev/null
event=""
for _ in $(seq 1 15); do
	if grep -q "event: diff" smoke-sse.txt 2>/dev/null; then
		event=1
		break
	fi
	sleep 1
done
kill "$sse_pid" 2>/dev/null || true
wait "$sse_pid" 2>/dev/null || true
[ -n "$event" ] || { echo "smoke: no diff event arrived"; cat smoke-sse.txt; exit 1; }

echo "smoke: /metrics counted the traffic"
curl -sS "${CA[@]}" "$GW/metrics" | grep -E 'gateway_requests_total\{[^}]*\} [1-9]' >/dev/null \
	|| { echo "smoke: gateway_requests_total never advanced"; exit 1; }

echo "smoke: OK"
