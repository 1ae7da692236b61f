#!/usr/bin/env bash
# Clean-build CI check: configure a fresh build tree with strict warnings,
# build everything, run the full test suite, repeat the tier-1 tests under
# ASan+UBSan in a separate build tree, run the validation/determinism gate
# (invariant-checked golden scenarios + serial-vs-parallel trace digests),
# run a bounded differential-fuzzing campaign under the sanitizer build,
# run the crash-recovery gate (SIGKILL a checkpointed run and a journaled
# fuzz campaign mid-flight, resume each, and require bit-identical final
# digests), replay the pinned corpus through the fleet engine against the golden
# digests (plus a perf_fleet smoke run), run the governor-server gate
# (protocol corruption fuzz under the sanitizer build, a perf_server soak
# smoke, and a kill -9 + --resume digest-parity check on topil_serve), and
# record the integrator perf gate (Heun vs exponential) to BENCH_pr3.json
# plus the inference perf gate (perf_infer: production kernel vs scalar
# reference) to BENCH_npu.json. Optionally run the microbenchmark suite
# with a JSON report.
#
# Usage:
#   tools/ci_check.sh [build-dir]
#
# Environment:
#   JOBS            parallel build/test width (default: nproc)
#   SANITIZE        0 to skip the ASan+UBSan stage (default: 1)
#   SANITIZE_DIR    sanitizer build tree (default: <build-dir>-asan)
#   VALIDATE        0 to skip the validation/determinism gate (default: 1)
#   FUZZ            0 to skip the bounded fuzz stage (default: 1)
#   FUZZ_BUDGET     fuzz wall-clock budget in seconds (default: 60)
#   FUZZ_SEED       fuzz campaign seed (default: 42)
#   FUZZ_COUNT      upper bound on scenarios generated (default: 200)
#   FUZZ_MAX_CLUSTERS  most tiers per generated topology (default: 4)
#   FUZZ_P_GRID     probability of a many-core grid placement per scenario
#                   (default: 0.25; generator default is 0.15)
#   RECOVERY        0 to skip the crash-recovery (kill -9 + resume) gate
#                   (default: 1)
#   FLEET           0 to skip the fleet determinism + perf smoke gate
#                   (default: 1)
#   SERVER          0 to skip the governor-server gate (protocol fuzz
#                   under the sanitizer build, perf_server --smoke, and a
#                   kill -9 + --resume digest-parity check on topil_serve)
#                   (default: 1)
#   PERF_OUT        path for the PR3 perf record (default:
#                   <repo>/BENCH_pr3.json); set to "" to skip the stage
#   INFER_OUT       path for the inference perf record (default:
#                   <repo>/BENCH_npu.json); set to "" to skip the full
#                   run (the --smoke cross-check gate still executes)
#   BENCHMARK_OUT   if set, also run micro_substrate and write its
#                   google-benchmark JSON report to this path
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-"${repo_root}/build-ci"}"
jobs="${JOBS:-$(nproc)}"

echo "== configure (${build_dir})"
cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_CXX_FLAGS="-Wall -Wextra"

echo "== build (-j ${jobs})"
cmake --build "${build_dir}" -j "${jobs}"

echo "== test"
ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"

if [[ "${SANITIZE:-1}" != "0" ]]; then
  asan_dir="${SANITIZE_DIR:-"${build_dir}-asan"}"
  san_flags="-fsanitize=address,undefined -fno-sanitize-recover=all -fno-omit-frame-pointer"
  echo "== configure ASan+UBSan (${asan_dir})"
  cmake -B "${asan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-Wall -Wextra ${san_flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${san_flags}"

  echo "== build ASan+UBSan (-j ${jobs})"
  cmake --build "${asan_dir}" -j "${jobs}"

  echo "== test under ASan+UBSan"
  ASAN_OPTIONS="detect_leaks=0:abort_on_error=1" \
  UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
    ctest --test-dir "${asan_dir}" --output-on-failure -j "${jobs}"
fi

if [[ "${FUZZ:-1}" != "0" ]]; then
  # Bounded differential-fuzzing campaign: a fixed seed keeps the scenario
  # stream reproducible while the wall-clock budget bounds CI time (unrun
  # scenarios are skipped, not failed). Prefer the sanitizer build so every
  # fuzzed simulation also runs under ASan+UBSan; any oracle violation
  # leaves a minimized .scenario reproducer behind and fails the check.
  fuzz_bin="${build_dir}/tools/topil_fuzz"
  if [[ "${SANITIZE:-1}" != "0" ]]; then
    fuzz_bin="${SANITIZE_DIR:-"${build_dir}-asan"}/tools/topil_fuzz"
  fi
  fuzz_corpus="${repo_root}/fuzz-failures"
  # The topology knobs push the campaign across the general scenario space:
  # 1..FUZZ_MAX_CLUSTERS tiers per platform and a raised chance of
  # many-core grid floorplan placements.
  echo "== differential fuzz (budget ${FUZZ_BUDGET:-60}s, seed ${FUZZ_SEED:-42}, up to ${FUZZ_MAX_CLUSTERS:-4} tiers, p-grid ${FUZZ_P_GRID:-0.25})"
  ASAN_OPTIONS="detect_leaks=0:abort_on_error=1" \
  UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
    "${fuzz_bin}" --seed "${FUZZ_SEED:-42}" --count "${FUZZ_COUNT:-200}" \
    --jobs "${jobs}" --budget "${FUZZ_BUDGET:-60}s" \
    --max-clusters "${FUZZ_MAX_CLUSTERS:-4}" --p-grid "${FUZZ_P_GRID:-0.25}" \
    --corpus-dir "${fuzz_corpus}"
fi

if [[ "${VALIDATE:-1}" != "0" ]]; then
  echo "== validation gate (runtime invariant checker)"
  run="${build_dir}/tools/topil_run"
  # Two small golden scenarios under the invariant checker, one per
  # integrator. Any violated invariant makes topil_run exit non-zero.
  "${run}" --governor gts-ondemand --workload mixed --apps 4 --rate 0.05 \
    --seed 5 --duration 120 --validate
  "${run}" --governor gts-powersave --workload mixed --apps 4 --rate 0.05 \
    --seed 5 --duration 120 --validate

  echo "== determinism gate (serial vs parallel training digests)"
  # topil-quick trains a small policy through the full design-time
  # pipeline. Separate cache dirs force both runs to actually train, so a
  # jobs-1 / jobs-N digest mismatch pins nondeterminism to the parallel
  # path, and a jobs-1 mismatch against the golden value (the
  # GoldenTraceTest.TrainedTopIlPolicyMatchesGolden pin) flags changed
  # training or inference numerics.
  trained_golden="92a082207e0686e9"
  det_tmp="$(mktemp -d)"
  trap 'rm -rf "${det_tmp}"' EXIT
  TOPIL_CACHE_DIR="${det_tmp}/cache-j1" "${run}" --governor topil-quick \
    --workload mixed --apps 4 --rate 0.05 --seed 5 --duration 120 \
    --jobs 1 --digest-out "${det_tmp}/digest-j1"
  TOPIL_CACHE_DIR="${det_tmp}/cache-jn" "${run}" --governor topil-quick \
    --workload mixed --apps 4 --rate 0.05 --seed 5 --duration 120 \
    --jobs "${jobs}" --digest-out "${det_tmp}/digest-jn"
  if ! diff "${det_tmp}/digest-j1" "${det_tmp}/digest-jn"; then
    echo "determinism gate FAILED: jobs-1 and jobs-${jobs} digests differ" >&2
    exit 1
  fi
  if [[ "$(cat "${det_tmp}/digest-j1")" != "${trained_golden}" ]]; then
    echo "determinism gate FAILED: digest $(cat "${det_tmp}/digest-j1")" \
         "!= golden ${trained_golden}" >&2
    exit 1
  fi
  echo "determinism gate OK: digest $(cat "${det_tmp}/digest-j1")"
fi

if [[ "${RECOVERY:-1}" != "0" ]]; then
  echo "== crash-recovery gate (SIGKILL + resume digest parity)"
  # Kill a checkpointed run and a journaled fuzz campaign mid-flight with
  # SIGKILL (no cleanup handlers run, exactly like a crash or OOM kill),
  # resume each from its on-disk state, and require the final digest to be
  # bit-identical to an uninterrupted golden run. The kill races the run on
  # purpose: whether it lands before the first checkpoint, mid-run, or
  # after completion, the resumed digest must come out the same.
  # (The corruption-injection suite — tests/persist — already ran under
  # both the plain and the ASan+UBSan ctest stages above.)
  rec_tmp="${build_dir}/recovery-gate"
  rm -rf "${rec_tmp}"
  mkdir -p "${rec_tmp}"
  run="${build_dir}/tools/topil_run"
  run_args=(--governor gts-ondemand --workload mixed --apps 40 --rate 0.02
            --seed 9 --duration 3600)

  "${run}" "${run_args[@]}" --checkpoint "${rec_tmp}/golden.ckpt" \
    --checkpoint-every 5 --digest-out "${rec_tmp}/digest-golden"

  "${run}" "${run_args[@]}" --checkpoint "${rec_tmp}/killed.ckpt" \
    --checkpoint-every 5 >/dev/null 2>&1 &
  victim=$!
  sleep 1
  kill -9 "${victim}" 2>/dev/null || true
  wait "${victim}" 2>/dev/null || true
  "${run}" "${run_args[@]}" --checkpoint "${rec_tmp}/killed.ckpt" \
    --checkpoint-every 5 --resume --digest-out "${rec_tmp}/digest-resumed"
  if ! diff "${rec_tmp}/digest-golden" "${rec_tmp}/digest-resumed"; then
    echo "crash-recovery gate FAILED: resumed topil_run digest differs" >&2
    exit 1
  fi
  echo "crash-recovery gate OK: run digest $(cat "${rec_tmp}/digest-golden")"

  fuzz="${build_dir}/tools/topil_fuzz"
  fuzz_args=(--seed 11 --count 24 --jobs 2 --no-shrink)
  "${fuzz}" "${fuzz_args[@]}" | tee "${rec_tmp}/fuzz-golden"
  "${fuzz}" "${fuzz_args[@]}" --checkpoint "${rec_tmp}/campaign.wal" \
    >/dev/null 2>&1 &
  victim=$!
  sleep 1
  kill -9 "${victim}" 2>/dev/null || true
  wait "${victim}" 2>/dev/null || true
  "${fuzz}" "${fuzz_args[@]}" --checkpoint "${rec_tmp}/campaign.wal" \
    --resume | tee "${rec_tmp}/fuzz-resumed"
  golden_digest="$(sed -n 's/.*campaign digest \([0-9a-f]*\).*/\1/p' \
    "${rec_tmp}/fuzz-golden")"
  resumed_digest="$(sed -n 's/.*campaign digest \([0-9a-f]*\).*/\1/p' \
    "${rec_tmp}/fuzz-resumed")"
  if [[ -z "${golden_digest}" || \
        "${golden_digest}" != "${resumed_digest}" ]]; then
    echo "crash-recovery gate FAILED: resumed campaign digest" \
         "'${resumed_digest}' != golden '${golden_digest}'" >&2
    exit 1
  fi
  echo "crash-recovery gate OK: campaign digest ${golden_digest}"
fi

if [[ "${FLEET:-1}" != "0" ]]; then
  echo "== fleet determinism gate (batched corpus replay vs golden digests)"
  # The pinned corpus replayed through the SoA fleet engine must produce
  # the same per-scenario digests as the golden (scalar-recorded) file at
  # every batch width — the bit-for-bit contract of DESIGN.md §10. Batch 4
  # exercises ragged groups and retirement compaction; batch 64 is the
  # full-width kernel.
  corpus=("${repo_root}"/tests/scenario/corpus/*.scenario)
  golden="${repo_root}/tests/scenario/corpus/GOLDEN_DIGESTS"
  for fleet_batch in 4 64; do
    "${build_dir}/tools/topil_fuzz" --fleet-batch "${fleet_batch}" \
      --jobs "${jobs}" --golden "${golden}" --replay "${corpus[@]}"
  done

  echo "== fleet perf smoke"
  # Small fixture: proves the bench binary and both fixtures stay runnable;
  # the full BENCH_fleet.json run is manual (tools/perf_fleet, no --smoke).
  "${build_dir}/bench/perf_fleet" --smoke --jobs "${jobs}" \
    --json "${build_dir}/BENCH_fleet_smoke.json"
fi

if [[ "${SERVER:-1}" != "0" ]]; then
  echo "== server protocol fuzz (corruption sweep under sanitizers)"
  # The wire-protocol corruption sweep (every-byte truncation, every-bit
  # flip, oversized lengths, trailing garbage, interleaved partial frames)
  # already ran in both plain ctest stages above; re-run it here standalone
  # under the sanitizer build so a SANITIZE=0 + SERVER=1 invocation still
  # gets memory-safety coverage on the frame decoder, and so a fuzz
  # regression fails with a protocol-scoped message rather than somewhere
  # inside a 800-test ctest log.
  server_test="${build_dir}/tests/test_server"
  if [[ "${SANITIZE:-1}" != "0" ]]; then
    server_test="${SANITIZE_DIR:-"${build_dir}-asan"}/tests/test_server"
  fi
  ASAN_OPTIONS="detect_leaks=0:abort_on_error=1" \
  UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1" \
    "${server_test}" --gtest_filter='Protocol.*:ProtocolFuzz.*'

  echo "== server soak smoke (perf_server --smoke)"
  # Small multi-tenant soak: real shards, real wire frames, invariant
  # checker on. perf_server exits non-zero on any violation, protocol
  # error, missing retirement, or action undercount, so --smoke doubles as
  # a correctness gate; the full BENCH_server.json soak is manual.
  "${build_dir}/bench/perf_server" --smoke --jobs "${jobs}" \
    --json "${build_dir}/BENCH_server_smoke.json"

  echo "== server crash-recovery gate (kill -9 + --resume digest parity)"
  # Golden: an uninterrupted self-driven fleet, dumping every retired
  # device's digests from the shard WALs. Victim: the same fleet killed
  # with SIGKILL mid-run (checkpoints + WALs torn wherever the kill
  # lands), then resumed and drained. The dumped digest files must match
  # byte for byte — shard WAL replay + checkpoint restore must put every
  # device back on its exact trajectory.
  srv_tmp="${build_dir}/server-gate"
  rm -rf "${srv_tmp}"
  mkdir -p "${srv_tmp}"
  serve="${build_dir}/tools/topil_serve"
  serve_args=(--shards 4 --seed-devices 64 --device-seed 2024
              --device-duration 20 --epoch-ticks 50 --checkpoint-every 25
              --validate)
  "${serve}" "${serve_args[@]}" --state-dir "${srv_tmp}/golden" --drain \
    --dump-digests "${srv_tmp}/digests-golden"

  "${serve}" "${serve_args[@]}" --state-dir "${srv_tmp}/killed" --drain \
    >/dev/null 2>&1 &
  victim=$!
  sleep 0.4
  kill -9 "${victim}" 2>/dev/null || true
  wait "${victim}" 2>/dev/null || true
  "${serve}" --shards 4 --epoch-ticks 50 --checkpoint-every 25 --validate \
    --state-dir "${srv_tmp}/killed" --resume --drain \
    --dump-digests "${srv_tmp}/digests-resumed"
  if ! diff "${srv_tmp}/digests-golden" "${srv_tmp}/digests-resumed"; then
    echo "server crash-recovery gate FAILED: resumed digests differ" >&2
    exit 1
  fi
  echo "server crash-recovery gate OK:" \
       "$(wc -l < "${srv_tmp}/digests-golden") devices bit-identical"
fi

perf_out="${PERF_OUT-"${repo_root}/BENCH_pr3.json"}"
if [[ -n "${perf_out}" ]]; then
  echo "== perf gate (Heun vs exponential integrator) -> ${perf_out}"
  "${build_dir}/bench/perf_rollout" --jobs "${jobs}" --json "${perf_out}"
fi

echo "== inference smoke gate (production kernel vs scalar reference)"
# perf_infer exits non-zero if the production path's outputs diverge
# bitwise from the scalar reference, so --smoke doubles as a correctness
# gate.
"${build_dir}/bench/perf_infer" --smoke \
  --json "${build_dir}/BENCH_npu_smoke.json"

infer_out="${INFER_OUT-"${repo_root}/BENCH_npu.json"}"
if [[ -n "${infer_out}" ]]; then
  echo "== inference perf gate (batch-size curves) -> ${infer_out}"
  "${build_dir}/bench/perf_infer" --json "${infer_out}"
fi

if [[ -n "${BENCHMARK_OUT:-}" ]]; then
  echo "== micro benchmarks -> ${BENCHMARK_OUT}"
  BENCHMARK_OUT_FORMAT="${BENCHMARK_OUT_FORMAT:-json}" \
    cmake --build "${build_dir}" --target micro_bench
fi

echo "== ci_check OK"
