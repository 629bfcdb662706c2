#!/bin/sh
# bench.sh — core-microbenchmark regression harness.
#
# Record mode runs the simulator-core microbenchmarks with -benchmem and
# writes:
#   BENCH_core.txt   raw `go test -bench` output (for humans and diffing)
#   BENCH_core.json  one JSON object per benchmark (for tooling/trend plots)
#
# Compare mode diffs a fresh run against the committed baseline
# (BENCH_core.json at the repo root) and emits a GitHub Actions
# `::warning::` annotation for every benchmark whose ns/op, B/op, or
# allocs/op regressed by more than 15%. Timing regressions warn, they do
# not fail: CI runners are noisy, and the committed baseline is the
# reviewed source of truth that perf-sensitive PRs re-record deliberately.
# A changed events_per_op is an `::error::` and exits 1: event counts are
# deterministic and counted in an untimed run, so they do not depend on
# BENCHTIME or the host, and a different count means the simulated work
# changed.
#
# Large mode runs the LARGE set — the 16x16x16 (4096-NPU) all-reduce on
# both network backends and the 16x32x32 (16384-NPU) one on the serial
# and the partitioned engine — and writes BENCH_large.{txt,json}. It is kept
# out of compare mode and CI: the set takes a few minutes per recording
# (the recorded ratios live in EXPERIMENTS.md).
#
# Usage:
#   scripts/bench.sh [output-dir]         record (default output: repo root)
#   scripts/bench.sh large [output-dir]   record the LARGE backend-duality set
#   scripts/bench.sh compare [work-dir]   fresh run into work-dir (default:
#                                         a temp dir), compare vs baseline
#
# Run record mode before and after a perf-sensitive change; the JSON keys
# (ns_per_op, bytes_per_op, allocs_per_op, and events_per_op for the
# simulation benchmarks, which report Engine.Fired() as events/op) are
# the numbers PR descriptions should quote. Each benchmark runs COUNT samples of BENCHTIME iterations
# each; the JSON reports the median of every key over the samples, and
# ns_per_op_min/ns_per_op_max give the spread, so a number is never a
# single-sample fluke.
set -eu

cd "$(dirname "$0")/.."
BENCHTIME="${BENCHTIME:-3x}"
COUNT=5

# The stable core set: the collective and graph-replay
# microbenchmarks the perf acceptance criteria track. The fast-backend
# 8x8x8 all-reduce is the bench workload allreduce-fast: it covers the
# system layer's per-message send path and the serialization memo. The
# packet and fast 4x4x4 all-reduces send the same messages, so the pair
# gives the packet model's cost per message over the fast backend's. The
# exact-packets 4x4x4 all-reduce runs without the packet cap, so packet
# trains hundreds of packets long carry its cost. The 2-worker 4x4x4
# all-reduce is the bench workload allreduce-pdes2: the one partitioned
# run, covering the pdes window protocol (shard pool, flush); its
# 1-worker twin gives the protocol's cost without parallelism. The
# hier:sw8,fc4,ring4 all-reduce and the a2a:4x8 all-to-all are the fast
# backend's switched runs: most of their network cost is on links a
# switch feeds. The daemon round trip is one cache miss and its cached
# repeat through the service handler: the daemon request path.
# EVQ is the event-queue set: a schedule-then-drain run, two
# steady-state hold shapes: many events over few cycles (packet
# all-reduce) and nearly every event at a cycle of its own (the bucketed
# queue's worst case), and a crowded cycle: interleaved packet-train
# deliveries injected below a future cycle's tail (the walk and the
# finger).
CORE='BenchmarkAllReduce4x4x4_4MB|BenchmarkAllReduce4x4x4_4MB_Fast|BenchmarkAllReduce4x4x4_4MB_ExactPackets|BenchmarkAllReduce4x4x4_4MB_IntraParallel1|BenchmarkAllReduce4x4x4_4MB_IntraParallel2|BenchmarkAllReduce8x8x8_64MB_Fast|BenchmarkAllReduceHierSw8_4MB_Fast|BenchmarkAllToAllA2A4x8_1MB_Fast|BenchmarkAllToAll_8Packages_1MB|BenchmarkDaemonRoundTrip|BenchmarkGraphReplayPipeline|BenchmarkModelgenCompile|BenchmarkModelReplay'
EVQ='BenchmarkScheduleRun|BenchmarkQueueClustered|BenchmarkQueueDistinct|BenchmarkQueueCrowded'
# The LARGE set: the fast-vs-packet backend speedup pair at 4096 NPUs,
# plus the intra-run parallelism set at 16384 NPUs (serial engine vs
# -intra-parallel at one and at NumCPU workers; DESIGN.md §13).
LARGE='BenchmarkAllReduce16x16x16_FastMode|BenchmarkAllReduce16x16x16_PacketMode|BenchmarkAllReduce16x32x32_PacketSerial|BenchmarkAllReduce16x32x32_IntraParallel|BenchmarkAllReduce16x32x32_IntraParallel1'

# tojson TXT JSON: convert "BenchmarkX  N  ns/op  B/op  allocs/op" lines
# from TXT into one JSON record per benchmark in JSON, in first-seen
# order. A benchmark with several samples (-count) gets the median of
# each value, plus the ns/op minimum and maximum as its spread.
tojson() {
  awk '
    # median NAME K KEY: the median of vals[NAME, 1..K, KEY]; sets lo and
    # hi to the extremes.
    function median(name, k, key,   i, j, v, s) {
      for (i = 1; i <= k; i++) s[i] = vals[name, i, key] + 0
      for (i = 2; i <= k; i++) {
        v = s[i]
        for (j = i - 1; j >= 1 && s[j] > v; j--) s[j + 1] = s[j]
        s[j + 1] = v
      }
      lo = s[1]; hi = s[k]
      return (k % 2) ? s[(k + 1) / 2] : (s[k / 2] + s[k / 2 + 1]) / 2
    }
    /^Benchmark/ && /allocs\/op/ {
      name = $1; sub(/-[0-9]+$/, "", name)
      if (!(name in count)) { order[++n] = name; iters[name] = $2 }
      k = ++count[name]
      # Each value precedes its unit; events/op, reported by the
      # simulation benchmarks, sits between ns/op and B/op.
      for (i = 4; i <= NF; i++) {
        if ($i == "ns/op") vals[name, k, "ns"] = $(i - 1)
        else if ($i == "B/op") vals[name, k, "bytes"] = $(i - 1)
        else if ($i == "allocs/op") vals[name, k, "allocs"] = $(i - 1)
        else if ($i == "events/op") { vals[name, k, "events"] = $(i - 1); hasEvents[name] = 1 }
      }
    }
    END {
      for (i = 1; i <= n; i++) {
        name = order[i]; k = count[name]
        bytes = median(name, k, "bytes"); allocs = median(name, k, "allocs")
        events = (name in hasEvents) ? sprintf(",\"events_per_op\":%.0f", median(name, k, "events")) : ""
        ns = median(name, k, "ns")
        printf("%s{\"benchmark\":\"%s\",\"iterations\":%s,\"samples\":%d,\"ns_per_op\":%.0f,\"ns_per_op_min\":%.0f,\"ns_per_op_max\":%.0f,\"bytes_per_op\":%.0f,\"allocs_per_op\":%.0f%s}",
               (i > 1 ? ",\n  " : "[\n  "), name, iters[name], k, ns, lo, hi, bytes, allocs, events)
      }
      if (n) print "\n]"; else print "[]"
    }
  ' "$1" > "$2"
}

# hostline labels a recording with the host's CPU count: the numbers are
# only comparable between recordings on hosts of one size.
hostline() {
  echo "# recorded on a $(getconf _NPROCESSORS_ONLN)-vCPU host"
}

# check TXT NAMES: fail with a named error when any benchmark in NAMES
# (a |-separated list) has no result line in TXT. Without this, renaming
# or deleting a benchmark silently records an empty/partial JSON and the
# committed baseline rots unnoticed.
check() {
  txt="$1"
  names="$2"
  missing=""
  for n in $(printf '%s' "$names" | tr '|' ' '); do
    grep -q "^$n\>" "$txt" || missing="$missing $n"
  done
  if [ -n "$missing" ]; then
    echo "bench.sh: no result for benchmark(s):$missing" >&2
    echo "bench.sh: the benchmark was renamed or removed; update CORE/LARGE in scripts/bench.sh to match bench_test.go" >&2
    return 1
  fi
}

# record DIR: run the core set and write BENCH_core.{txt,json} into DIR.
record() {
  out="$1"
  mkdir -p "$out"
  txt="$out/BENCH_core.txt"
  json="$out/BENCH_core.json"
  {
    hostline
    go test -run '^$' -bench "$CORE" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" .
    go test -run '^$' -bench "$EVQ" -benchmem -benchtime 100x -count "$COUNT" ./internal/eventq/
  } | tee "$txt"
  check "$txt" "$CORE|$EVQ"
  tojson "$txt" "$json"
  echo "wrote $txt and $json" >&2
}

# record_large DIR: run the LARGE set, COUNT samples of one iteration
# per benchmark (1x keeps the set tractable), into BENCH_large.{txt,json}.
record_large() {
  out="$1"
  mkdir -p "$out"
  txt="$out/BENCH_large.txt"
  json="$out/BENCH_large.json"
  {
    hostline
    go test -run '^$' -bench "$LARGE" -benchmem -benchtime "${BENCHTIME_LARGE:-1x}" \
      -count "$COUNT" -timeout 60m .
  } | tee "$txt"
  check "$txt" "$LARGE"
  tojson "$txt" "$json"
  echo "wrote $txt and $json" >&2
}

if [ "${1:-}" = "large" ]; then
  record_large "${2:-.}"
  exit 0
fi

# Hidden subcommand so the missing-benchmark guard is testable without
# running real benchmarks: bench.sh check TXT 'NameA|NameB'.
if [ "${1:-}" = "check" ]; then
  check "$2" "$3"
  exit 0
fi

# Hidden subcommand so the sample aggregation is testable the same way:
# bench.sh tojson TXT JSON.
if [ "${1:-}" = "tojson" ]; then
  tojson "$2" "$3"
  exit 0
fi

if [ "${1:-}" != "compare" ]; then
  record "${1:-.}"
  exit 0
fi

# ---- compare mode ----------------------------------------------------
baseline="BENCH_core.json"
if [ ! -f "$baseline" ]; then
  echo "bench.sh compare: no committed baseline at $baseline (record one with scripts/bench.sh)" >&2
  exit 1
fi
work="${2:-$(mktemp -d)}"
if [ ! -f "$work/BENCH_core.json" ]; then
  record "$work" >/dev/null
fi
fresh="$work/BENCH_core.json"

# Both files are the flat one-object-per-line JSON this script writes, so
# a line-oriented awk join is enough — no jq dependency.
awk '
  function val(line, key,   rest) {
    rest = line
    if (!sub(".*\"" key "\":", "", rest)) return ""
    sub(/[,}].*/, "", rest)
    return rest
  }
  /"benchmark":/ {
    name = val($0, "benchmark"); gsub(/"/, "", name)
    ns = val($0, "ns_per_op"); allocs = val($0, "allocs_per_op")
    bytes = val($0, "bytes_per_op"); events = val($0, "events_per_op")
    if (FNR == NR) {
      base_ns[name] = ns; base_allocs[name] = allocs; base_bytes[name] = bytes
      base_events[name] = events
      next
    }
    if (!(name in base_ns)) {
      printf("bench compare: %s has no baseline entry (re-record BENCH_core.json)\n", name)
      next
    }
    checked++
    if (base_events[name] != "" && events != "" && events != base_events[name]) {
      printf("::error title=bench events changed::%s events/op %s -> %s (the simulated work changed)\n",
             name, base_events[name], events)
      failed++
    }
    if (base_ns[name] + 0 > 0 && ns + 0 > 1.15 * base_ns[name]) {
      printf("::warning title=bench regression::%s ns/op %.0f -> %.0f (+%.1f%%, threshold 15%%)\n",
             name, base_ns[name], ns, 100 * (ns / base_ns[name] - 1))
      flagged++
    }
    if (base_allocs[name] + 0 > 0 && allocs + 0 > 1.15 * base_allocs[name]) {
      printf("::warning title=bench regression::%s allocs/op %d -> %d (+%.1f%%, threshold 15%%)\n",
             name, base_allocs[name], allocs, 100 * (allocs / base_allocs[name] - 1))
      flagged++
    }
    if (base_bytes[name] + 0 > 0 && bytes + 0 > 1.15 * base_bytes[name]) {
      printf("::warning title=bench regression::%s B/op %d -> %d (+%.1f%%, threshold 15%%)\n",
             name, base_bytes[name], bytes, 100 * (bytes / base_bytes[name] - 1))
      flagged++
    }
  }
  END {
    printf("bench compare: %d benchmarks checked against the baseline, %d regression warnings, %d event-count changes\n",
           checked + 0, flagged + 0, failed + 0) > "/dev/stderr"
    if (failed) exit 1
  }
' "$baseline" "$fresh"
