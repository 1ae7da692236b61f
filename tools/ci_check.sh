#!/usr/bin/env bash
# Clean-build CI check: configure a fresh build tree with strict warnings,
# build everything, run the full test suite, repeat the tier-1 tests under
# ASan+UBSan in a separate build tree, run the threaded suites under TSan in
# a third, run the validation/determinism gate
# (invariant-checked golden scenarios + serial-vs-parallel trace digests +
# the benchmark's design check on concurrent training flows), run a bounded
# differential-fuzzing campaign under the sanitizer build, run the
# crash-recovery gate (SIGKILL a checkpointed run and a journaled fuzz
# campaign mid-flight, resume each, and require bit-identical final
# digests), replay the pinned corpus through the fleet engine against the
# golden digests (plus the benchmark's fleet check, which also bounds its
# peak RSS, the hot-entry alignment check on the benchmark binary, and a
# perf_fleet smoke run), run the governor-server gate
# (protocol corruption fuzz under the sanitizer build, a topil_stress soak
# smoke whose retire digests must match solo reference rollouts, the
# benchmark's serve check, and a kill -9 + --resume digest-parity check on
# topil_serve), and
# record the integrator perf gate (Heun vs exponential) plus the
# dense-kernel perf gate (perf_infer: production inference and training
# kernels vs scalar reference) into the build dir. A default run modifies
# no tracked file; refreshing the committed BENCH_pr3.json or
# BENCH_npu.json takes an explicit PERF_OUT=... or INFER_OUT=....
# Optionally run the microbenchmark suite with a JSON report.
#
# Usage:
#   tools/ci_check.sh [build-dir]
#
# Environment:
#   JOBS            parallel build/test width (default: nproc)
#   SANITIZE        0 to skip the ASan+UBSan and TSan stages (default: 1)
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
#   FLEET           0 to skip the fleet determinism gate (corpus replay,
#                   benchmark fleet check, hot-entry alignment, perf smoke)
#                   (default: 1)
#   SERVER          0 to skip the governor-server gate (protocol fuzz
#                   under the sanitizer build, the topil_stress soak smoke
#                   and its served-vs-reference digest diff, the
#                   benchmark's serve check, and a kill -9 + --resume
#                   digest-parity check on topil_serve) (default: 1)
#   PERF_OUT        path for the integrator perf record (default:
#                   <build-dir>/BENCH_pr3.json); set to "" to skip the
#                   stage
#   INFER_OUT       path for the inference perf record (default:
#                   <build-dir>/BENCH_npu.json); set to "" to skip the
#                   full run (the --smoke cross-check gate still executes)
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

  # The threaded suites under ThreadSanitizer: parallel_for and its helper
  # cache (test_common), fleet workers (test_fleet), the server's shards,
  # IO thread and clients over socketpairs and TCP, with the socket stream
  # every connection uses (test_server), and 32 concurrent first uses of
  # one thermal network (ThermalNetwork.*). Any report fails the stage.
  tsan_dir="${build_dir}-tsan"
  echo "== configure TSan (${tsan_dir})"
  cmake -B "${tsan_dir}" -S "${repo_root}" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-Wall -Wextra -fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"

  echo "== build TSan (-j ${jobs})"
  cmake --build "${tsan_dir}" -j "${jobs}" \
    --target test_common test_fleet test_server test_thermal

  echo "== test under TSan"
  for suite in test_common test_fleet test_server; do
    TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/${suite}"
  done
  TSAN_OPTIONS="halt_on_error=1" "${tsan_dir}/tests/test_thermal" \
    --gtest_filter='ThermalNetwork.*'
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
  # integrator: Heun (topil_run's default) and the exponential one every
  # production caller runs. Any violated invariant makes topil_run exit
  # non-zero.
  "${run}" --governor gts-ondemand --workload mixed --apps 4 --rate 0.05 \
    --seed 5 --duration 120 --validate
  "${run}" --governor gts-powersave --workload mixed --apps 4 --rate 0.05 \
    --seed 5 --duration 120 --validate --integrator exp

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

  echo "== determinism gate: benchmark design check (perfbench)"
  # The design workload runs three design flows (dataset, training,
  # DAgger) concurrently and fails unless they give bit-identical losses,
  # so it catches training state shared across threads. It builds its own
  # tree under .bench_build/ in the repo root.
  (cd "${repo_root}" && python3 perfbench/run.py --workload design --seed 1 \
    --seconds 3 --trace 0)
fi

if [[ "${RECOVERY:-1}" != "0" ]]; then
  echo "== crash-recovery gate (SIGKILL + resume digest parity)"
  # Kill a checkpointed run and a journaled fuzz campaign mid-flight with
  # SIGKILL (no cleanup handlers run, exactly like a crash or OOM kill),
  # resume each from its on-disk state, and require the final digest to be
  # bit-identical to an uninterrupted golden run.
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

  # The victim is killed halfway through its run: a Python runner reads
  # the tick count of every checkpoint it writes and kills it once the
  # count reaches 91,925 of the run's 183,849 ticks, so the resume
  # continues a mid-run state. It fails if the victim ends first. (The
  # run takes under a second here, so a fixed `sleep 1` killed a finished
  # run and the resume only replayed its last checkpoint.)
  python3 - "${rec_tmp}/killed.ckpt" 91925 "${run}" "${run_args[@]}" \
    --checkpoint "${rec_tmp}/killed.ckpt" --checkpoint-every 5 <<'EOF'
import struct, subprocess, sys, time
path, tick, cmd = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
victim = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
reached = False
deadline = time.monotonic() + 120
while not reached and victim.poll() is None and time.monotonic() < deadline:
    try:
        with open(path, "rb") as f:
            data = f.read()
        # TOPC header (20 B), "CKPT", the meta string and the governor
        # name (u64 length, bytes), then u64 arrival cursor, digest, ticks.
        at = 24
        for _ in range(2):
            at += 8 + struct.unpack_from("<Q", data, at)[0]
        reached = struct.unpack_from("<Q", data, at + 16)[0] >= tick
    except (OSError, struct.error):
        pass
    if not reached:
        time.sleep(0.0002)
victim.kill()
victim.wait()
if not reached:
    sys.exit("crash-recovery gate FAILED: topil_run ended before a "
             f"checkpoint reached tick {tick}")
EOF
  "${run}" "${run_args[@]}" --checkpoint "${rec_tmp}/killed.ckpt" \
    --checkpoint-every 5 --resume --digest-out "${rec_tmp}/digest-resumed"
  if ! diff "${rec_tmp}/digest-golden" "${rec_tmp}/digest-resumed"; then
    echo "crash-recovery gate FAILED: resumed topil_run digest differs" >&2
    exit 1
  fi
  echo "crash-recovery gate OK: run digest $(cat "${rec_tmp}/digest-golden")"

  # The campaign victim is killed once its journal has grown past the meta
  # record, i.e. right after its first scenario records landed, so the
  # resume must restore finished scenarios and run the rest. The meta
  # record's size comes from the same campaign journaled with a budget
  # that expires before any scenario starts.
  fuzz="${build_dir}/tools/topil_fuzz"
  fuzz_args=(--seed 11 --count 120 --jobs 2 --no-shrink)
  "${fuzz}" "${fuzz_args[@]}" | tee "${rec_tmp}/fuzz-golden"
  "${fuzz}" "${fuzz_args[@]}" --budget 0.000001 \
    --checkpoint "${rec_tmp}/meta-only.wal" >/dev/null
  meta_bytes="$(stat -c %s "${rec_tmp}/meta-only.wal")"
  "${fuzz}" "${fuzz_args[@]}" --checkpoint "${rec_tmp}/campaign.wal" \
    >/dev/null 2>&1 &
  victim=$!
  for _ in $(seq 1000); do
    journal_bytes="$(stat -c %s "${rec_tmp}/campaign.wal" 2>/dev/null ||
                     echo 0)"
    (( journal_bytes > meta_bytes )) && break
    sleep 0.005
  done
  kill -9 "${victim}" 2>/dev/null || true
  wait "${victim}" 2>/dev/null || true
  "${fuzz}" "${fuzz_args[@]}" --checkpoint "${rec_tmp}/campaign.wal" \
    --resume | tee "${rec_tmp}/fuzz-resumed"
  golden_digest="$(sed -n 's/.*campaign digest \([0-9a-f]*\).*/\1/p' \
    "${rec_tmp}/fuzz-golden")"
  resumed_digest="$(sed -n 's/.*campaign digest \([0-9a-f]*\).*/\1/p' \
    "${rec_tmp}/fuzz-resumed")"
  restored="$(sed -n 's/.*(restored \([0-9]*\)).*/\1/p' \
    "${rec_tmp}/fuzz-resumed")"
  if [[ -z "${golden_digest}" || \
        "${golden_digest}" != "${resumed_digest}" ]]; then
    echo "crash-recovery gate FAILED: resumed campaign digest" \
         "'${resumed_digest}' != golden '${golden_digest}'" >&2
    exit 1
  fi
  if (( ${restored:-0} < 1 )); then
    echo "crash-recovery gate FAILED: the resumed campaign restored no" \
         "scenario from the killed campaign's journal" >&2
    exit 1
  fi
  echo "crash-recovery gate OK: campaign digest ${golden_digest}," \
       "${restored} scenario(s) restored"
fi

if [[ "${FLEET:-1}" != "0" ]]; then
  echo "== fleet determinism gate (batched corpus replay vs golden digests)"
  # The pinned corpus replayed through the SoA fleet engine must produce
  # the same per-scenario digests as the golden (scalar-recorded) file at
  # every batch width — the bit-for-bit contract of DESIGN.md §10. Batch 4
  # exercises ragged groups and retirement compaction. Batch 64 runs on one
  # worker so that one engine holds every corpus lane: run_experiments
  # gives each worker an engine, so more workers would split the corpus
  # into engines a few lanes wide.
  corpus=("${repo_root}"/tests/scenario/corpus/*.scenario)
  golden="${repo_root}/tests/scenario/corpus/GOLDEN_DIGESTS"
  "${build_dir}/tools/topil_fuzz" --fleet-batch 4 --jobs "${jobs}" \
    --golden "${golden}" --replay "${corpus[@]}"
  "${build_dir}/tools/topil_fuzz" --fleet-batch 64 --jobs 1 \
    --golden "${golden}" --replay "${corpus[@]}"

  echo "== fleet benchmark check (perfbench, 12x12 grid, 43/43/42-lane engines)"
  # The fleet workload re-runs lanes through the scalar run_experiment and
  # fails unless every result field matches bit for bit, on the 12x12
  # package grid at batch 64 over 3 workers, which run_experiments cuts
  # into 43/43/42-lane engines — widths and a floorplan no ctest case
  # runs end to end. It builds its own tree under .bench_build/ in the
  # repo root.
  fleet_out="${build_dir}/fleet-benchmark.out"
  (cd "${repo_root}" && python3 perfbench/run.py --workload fleet --seed 1 \
    --seconds 3 --trace 0) | tee "${fleet_out}"
  # Its 128 lanes share one 156-node thermal network (about 15 MB peak
  # RSS). A copy of the network and its steady-state LU per lane costs
  # about 420 KB each and reads about 64 MB, so it cannot come back
  # unnoticed.
  python3 - "${fleet_out}" <<'PY'
import json
import sys

last = open(sys.argv[1]).read().splitlines()[-1]
rss = json.loads(last)["metrics"]["peak_rss_mb"]["value"]
if rss > 32:
    sys.exit(f"fleet benchmark check FAILED: peak_rss_mb {rss} > 32")
print(f"fleet peak RSS OK: {rss} MB (limit 32)")
PY

  echo "== hot entry alignment (tools/hot_symbols.sh on topil_perfbench)"
  # Every vector kernel variant, step_batched, the simulator tick and
  # PowerModel::compute_into is declared aligned(64), so code linked ahead
  # of them cannot move their loops, and so the fleet benchmark.
  hot="$("${repo_root}/tools/hot_symbols.sh" \
    "${repo_root}/.bench_build/cmake/topil_perfbench")"
  echo "${hot}"
  if [[ -z "${hot}" ]] || grep -qv '^ 0  ' <<< "${hot}"; then
    echo "hot entry alignment FAILED: an entry is not at offset 0 mod 64" >&2
    exit 1
  fi

  echo "== fleet perf smoke"
  # Small fixture: proves the bench binary and both fixtures stay runnable;
  # the full BENCH_fleet.json run is manual (tools/perf_fleet, no --smoke).
  "${build_dir}/bench/perf_fleet" --smoke --jobs "${jobs}" \
    --json "${build_dir}/BENCH_fleet_smoke.json"
fi

if [[ "${SERVER:-1}" != "0" ]]; then
  # Each topil_stress and topil_serve run below takes seconds. A stalled
  # shard must fail the stage instead of hanging CI: SIGTERM at the 120 s
  # bound ends a run, topil_serve's --drain wait included, and SIGKILL
  # follows 10 s later for a process stuck past it. The kill -9 victim's
  # runner kills it after its first checkpoint, or at the same 120 s.
  bounded=(timeout -k 10 120)

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

  echo "== server soak smoke (topil_stress, served vs reference digests)"
  # Small multi-tenant soak: real shards, real wire frames, invariant
  # checker on. topil_stress exits non-zero on any violation, protocol
  # error, missing retirement, or a device whose action frames differ
  # from its retire record's count, so the smoke doubles as a correctness
  # gate; the full BENCH_server.json soak is manual. The same population
  # rolled out solo (--reference) must give the same retire digests: the
  # cross-tenant NPU batching identity gate.
  stress_tmp="${build_dir}/stress-gate"
  rm -rf "${stress_tmp}"
  mkdir -p "${stress_tmp}"
  stress="${build_dir}/tools/topil_stress"
  stress_args=(--devices 48 --clients 6 --duration 2 --epoch-ticks 25)
  "${bounded[@]}" "${stress}" "${stress_args[@]}" --validate \
    --shards "$(( jobs > 4 ? jobs : 4 ))" \
    --json "${build_dir}/BENCH_server_smoke.json" \
    --digest-out "${stress_tmp}/digests-served"
  "${bounded[@]}" "${stress}" "${stress_args[@]}" --reference \
    --digest-out "${stress_tmp}/digests-reference"
  if ! diff "${stress_tmp}/digests-served" \
            "${stress_tmp}/digests-reference"; then
    echo "server soak smoke FAILED: served digests differ from solo" \
         "reference rollouts" >&2
    exit 1
  fi
  echo "server soak smoke OK:" \
       "$(wc -l < "${stress_tmp}/digests-served") devices match reference"

  echo "== server benchmark check (perfbench serve, TCP, durable 2 shards)"
  # The serve workload registers 256-device cohorts over TCP with a
  # durable 2-shard server (WAL + checkpoints) and fails unless every
  # cohort retires with cohort 0's digests, ticks and action counts, and
  # two devices match run_reference_device: the only check of retire
  # digests over TCP, across cohorts, against a durable server. It builds
  # its own tree under .bench_build/ in the repo root.
  (cd "${repo_root}" && python3 perfbench/run.py --workload serve --seed 1 \
    --seconds 3 --trace 0)

  echo "== server drain stop gate (SIGTERM ends a --drain run)"
  # Devices that would run for 100000 simulated seconds keep --drain
  # waiting; SIGTERM 1 s in must end the run cleanly (exit 0) within
  # 10 s, or timeout's SIGKILL makes the status 137.
  if ! timeout --preserve-status -k 10 1 "${build_dir}/tools/topil_serve" \
         --seed-devices 8 --device-duration 100000 --drain >/dev/null; then
    echo "server drain stop gate FAILED: topil_serve --drain did not exit" \
         "cleanly within 10 s of SIGTERM" >&2
    exit 1
  fi
  echo "server drain stop gate OK"

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
  # A 51-tick cadence puts every device's first TOP-IL batch (epoch 1,
  # where every device migrates) in flight at the first checkpoint, and
  # the victim is killed right after shard 0 wrote it (a Python runner
  # reads the fleet tick that follows the checkpoint's meta string), so
  # at least that shard resumes from batches in flight. A fixed sleep let
  # the victim finish before the kill on a fast host, and a 25- or 37-tick
  # cadence never saves a batch whose decision migrates.
  serve_args=(--shards 4 --seed-devices 64 --device-seed 2024
              --device-duration 20 --epoch-ticks 50 --checkpoint-every 51
              --validate)
  "${bounded[@]}" "${serve}" "${serve_args[@]}" \
    --state-dir "${srv_tmp}/golden" --drain \
    --dump-digests "${srv_tmp}/digests-golden"

  python3 - "${srv_tmp}/killed/shard0.ckpt" 51 "${serve}" \
    "${serve_args[@]}" --state-dir "${srv_tmp}/killed" --drain <<'EOF'
import struct, subprocess, sys, time
path, tick, cmd = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
victim = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
deadline = time.monotonic() + 120
while victim.poll() is None and time.monotonic() < deadline:
    try:
        with open(path, "rb") as f:
            data = f.read()
        # TOPC header (20 B), "SSHD", u64 meta length, meta, u64 fleet tick.
        meta_len = struct.unpack_from("<Q", data, 24)[0]
        if struct.unpack_from("<Q", data, 32 + meta_len)[0] >= tick:
            break
    except (OSError, struct.error):
        pass
    time.sleep(0.0002)
victim.kill()
victim.wait()
EOF
  "${bounded[@]}" "${serve}" --shards 4 --epoch-ticks 50 \
    --checkpoint-every 51 --validate --state-dir "${srv_tmp}/killed" \
    --resume --drain \
    --dump-digests "${srv_tmp}/digests-resumed"
  if ! diff "${srv_tmp}/digests-golden" "${srv_tmp}/digests-resumed"; then
    echo "server crash-recovery gate FAILED: resumed digests differ" >&2
    exit 1
  fi
  echo "server crash-recovery gate OK:" \
       "$(wc -l < "${srv_tmp}/digests-golden") devices bit-identical"
fi

perf_out="${PERF_OUT-"${build_dir}/BENCH_pr3.json"}"
if [[ -n "${perf_out}" ]]; then
  echo "== perf gate (Heun vs exponential integrator) -> ${perf_out}"
  "${build_dir}/bench/perf_rollout" --jobs "${jobs}" --json "${perf_out}"
fi

echo "== dense-kernel smoke gate (production kernels vs scalar reference)"
# perf_infer exits non-zero if any production result (inference and GEMM
# outputs, weights after three training steps) diverges bitwise from the
# scalar reference, so --smoke doubles as a correctness gate.
"${build_dir}/bench/perf_infer" --smoke \
  --json "${build_dir}/BENCH_npu_smoke.json"

infer_out="${INFER_OUT-"${build_dir}/BENCH_npu.json"}"
if [[ -n "${infer_out}" ]]; then
  echo "== dense-kernel perf gate (batch-size curves) -> ${infer_out}"
  "${build_dir}/bench/perf_infer" --json "${infer_out}"
fi

if [[ -n "${BENCHMARK_OUT:-}" ]]; then
  echo "== micro benchmarks -> ${BENCHMARK_OUT}"
  BENCHMARK_OUT_FORMAT="${BENCHMARK_OUT_FORMAT:-json}" \
    cmake --build "${build_dir}" --target micro_bench
fi

echo "== ci_check OK"
