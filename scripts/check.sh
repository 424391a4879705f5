#!/usr/bin/env bash
# Tier-1 verification + thread-sanitizer pass over the parallel subsystem.
#
#   scripts/check.sh           # tier-1 build + full ctest, then TSAN,
#                              # pool-debug and fuzz builds
#   SKIP_TSAN=1 scripts/check.sh        # skip the TSAN stage
#   SKIP_POOL_DEBUG=1 scripts/check.sh  # skip the pool-poison stage
#   SKIP_FUZZ=1 scripts/check.sh        # skip the sanitized fuzz stage
#   SKIP_SERVE=1 scripts/check.sh       # skip the serving front-end stage
#   SKIP_SIMD=1 scripts/check.sh        # skip the SIMD/dispatch stage
#   SKIP_PLAN=1 scripts/check.sh        # skip the planner/executor stage
#
# The TSAN stage rebuilds with -DSANITIZE=thread into build-tsan/ and runs
# the thread-pool and parallel-determinism suites (the tests that exercise
# concurrent kernel execution). The pool-debug stage rebuilds with
# -DPREQR_POOL_DEBUG=ON (recycled buffers poisoned with NaN on release) and
# runs the tensor/ops/serving suites to prove nothing reads a recycled
# buffer before its zero-fill.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j
(cd build && ctest --output-on-failure -j "$(nproc)")

if [[ "${SKIP_TSAN:-0}" == "1" ]]; then
  echo "== TSAN stage skipped (SKIP_TSAN=1) =="
else
  echo "== TSAN: thread_pool, lru_cache, serving, schema_kv_memo, determinism, batch_invariance, nn_ops_grad, fused_forward_parity, grad_mode, buffer_pool, checkpoint =="
  cmake -B build-tsan -S . -DSANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target thread_pool_test \
    --target lru_cache_test --target serving_test \
    --target parallel_determinism_test --target batch_invariance_test \
    --target nn_ops_grad_test --target fused_forward_parity_test \
    --target grad_mode_test --target buffer_pool_test \
    --target checkpoint_test --target checkpoint_resume_test \
    --target schema_kv_memo_test
  # Force a multi-threaded pool so races are actually exercised even on
  # single-core CI machines; TSAN halts on the first detected race.
  export PREQR_NUM_THREADS=8
  export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
  ./build-tsan/tests/thread_pool_test
  ./build-tsan/tests/lru_cache_test
  ./build-tsan/tests/serving_test
  # The encoder memos: fine-tuned encoders keep every frozen prefix,
  # serving encoders (behind EncoderService's batcher thread) a query's
  # prefix from its second miss on.
  ./build-tsan/tests/schema_kv_memo_test
  ./build-tsan/tests/parallel_determinism_test
  ./build-tsan/tests/batch_invariance_test
  ./build-tsan/tests/nn_ops_grad_test \
    --gtest_filter='ParallelOpsGradTest.*:BatchedOpsGradTest.*'
  # The fused forward ops (Gemm epilogues, SoftmaxRows, Affine, the
  # attention op's per-(example, head) ParallelFor and its per-thread
  # scratch) against their composed references, at up to 8 pool threads.
  ./build-tsan/tests/fused_forward_parity_test
  # Death tests fork, which TSAN dislikes; the abort paths are covered in
  # the tier-1 run above.
  ./build-tsan/tests/grad_mode_test --gtest_filter='-*DeathTest*'
  ./build-tsan/tests/buffer_pool_test
  # Checkpointing: format hardening, the bitwise interrupted-training
  # drill, and hot reload under the serving mutexes.
  ./build-tsan/tests/checkpoint_test
  ./build-tsan/tests/checkpoint_resume_test
fi

if [[ "${SKIP_FUZZ:-0}" == "1" ]]; then
  echo "== FUZZ stage skipped (SKIP_FUZZ=1) =="
else
  echo "== FUZZ: grammar/mutation fuzz suites under ASan and TSan, wire tests and set-up equivalence under ASan, set-up equivalence under UBSan =="
  # Deterministic seeds (the suites' built-in defaults) keep this stage
  # bounded and reproducible; scripts/fuzz.sh is the open-ended long run.
  cmake -B build-asan -S . -DSANITIZE=address >/dev/null
  cmake --build build-asan -j --target fuzz_stress_test \
    --target fuzz_regression_test
  ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
    ./build-asan/tests/fuzz_regression_test
  ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
    ./build-asan/tests/fuzz_stress_test
  # Two drill processes at once: each writes its reload donors into its own
  # temp directory, so neither deletes a file the other is reading.
  ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
    ./build-asan/tests/fuzz_stress_test --gtest_repeat=8 \
    --gtest_filter='FuzzStressTest.*' >build-asan/fuzz_stress_1.log 2>&1 &
  first=$!
  ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
    ./build-asan/tests/fuzz_stress_test --gtest_repeat=8 \
    --gtest_filter='FuzzStressTest.*' >build-asan/fuzz_stress_2.log 2>&1 &
  second=$!
  status=0
  wait "$first" || { status=1; tail -n 40 build-asan/fuzz_stress_1.log; }
  wait "$second" || { status=1; tail -n 40 build-asan/fuzz_stress_2.log; }
  [[ $status -eq 0 ]]
  # The wire codec and the shared frame I/O: codec bytes against the
  # per-float loop, partial, pipelined, oversized and torn frames over a
  # socketpair and a live loopback server.
  cmake --build build-asan -j --target wire_test --target server_test
  ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" ./build-asan/tests/wire_test
  ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
    ./build-asan/tests/server_test
  # Tenant set-up against its pre-memoization references (template
  # clustering over the fuzz stream, edit distance, column statistics),
  # under ASan and then UBSan.
  cmake --build build-asan -j --target setup_equivalence_test
  ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
    ./build-asan/tests/setup_equivalence_test
  cmake -B build-ubsan -S . -DSANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j --target setup_equivalence_test
  ./build-ubsan/tests/setup_equivalence_test
  # The concurrent drills again under TSan: encodes racing
  # ReloadModel/InvalidateCache, and three tenants racing per-tenant
  # reloads plus a mid-drill deregistration, with the fuzz stream as input.
  cmake -B build-tsan -S . -DSANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target fuzz_stress_test
  PREQR_NUM_THREADS=8 TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ./build-tsan/tests/fuzz_stress_test
fi

if [[ "${SKIP_SERVE:-0}" == "1" ]]; then
  echo "== SERVE stage skipped (SKIP_SERVE=1) =="
else
  echo "== SERVE: request API + tenancy + loopback server + mini load sweep under TSan =="
  # The serving API drills (deadlines, shedding, drain), the multi-tenant
  # suite (registry lifecycle, isolation, per-tenant reload/deregister) and
  # the live-socket wire tests under TSan, then a short multi-tenant
  # closed-loop sweep against a real loopback server — ending with a schema
  # check of the emitted JSON, per-tenant rows included.
  cmake -B build-tsan -S . -DSANITIZE=thread >/dev/null
  cmake --build build-tsan -j --target serving_api_test \
    --target tenant_test --target server_test --target wire_test \
    --target bench_serving_load
  PREQR_NUM_THREADS=8 TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ./build-tsan/tests/serving_api_test
  PREQR_NUM_THREADS=8 TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ./build-tsan/tests/tenant_test
  PREQR_NUM_THREADS=8 TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ./build-tsan/tests/server_test
  TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" ./build-tsan/tests/wire_test
  LOAD_SECONDS=1 LOAD_CLIENTS=4 TENANTS=2 \
    BENCH_SERVING_JSON=build-tsan/BENCH_serving.json \
    TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}" \
    ./build-tsan/bench/bench_serving_load
  python3 - <<'EOF'
import json
with open("build-tsan/BENCH_serving.json") as f:
    doc = json.load(f)
points = doc["points"]
assert doc.get("kernel_impl") in ("scalar", "avx2", "avx512"), \
    f"bad kernel_impl: {doc.get('kernel_impl')!r}"
assert len(points) >= 3, f"expected >=3 load points, got {len(points)}"
assert doc["tenants"] == 2, f"expected tenants=2, got {doc.get('tenants')}"
for p in points:
    for key in ("clients", "seconds", "requests", "ok", "shed",
                "deadline_exceeded", "errors", "qps", "p50_us", "p95_us",
                "p99_us", "shed_rate", "cache_hit_rate", "per_tenant"):
        assert key in p, f"missing {key} in load point {p}"
    assert p["requests"] == p["ok"] + p["shed"] + p["deadline_exceeded"] + \
        p["errors"], f"request accounting off in {p}"
    assert p["p50_us"] <= p["p95_us"] <= p["p99_us"], f"percentiles off: {p}"
    rows = p["per_tenant"]
    assert [r["tenant"] for r in rows] == ["t0", "t1"], f"tenant rows: {rows}"
    for key in ("ok", "hits", "shed", "deadline_exceeded", "errors", "qps"):
        assert all(key in r for r in rows), f"missing {key} in {rows}"
    # The tenant slices partition the aggregate exactly.
    assert sum(r["ok"] for r in rows) == p["ok"], f"ok split off in {p}"
    assert sum(r["shed"] for r in rows) == p["shed"], f"shed split off in {p}"
print("BENCH_serving.json schema ok:", len(points),
      "load points with per-tenant rows")
EOF
fi

if [[ "${SKIP_SIMD:-0}" == "1" ]]; then
  echo "== SIMD stage skipped (SKIP_SIMD=1) =="
else
  echo "== SIMD: kernel dispatch parity under every impl + UBSan on dispatch plumbing and deadline math =="
  # The kernel-parity suite under each forced impl: PREQR_KERNEL_IMPL must
  # actually steer dispatch, and the per-impl determinism contract must
  # hold whichever table is active. The encode suites re-run under the
  # scalar table to prove the fallback serves identical Status behavior
  # and keeps the B=1-versus-mixed-batch bitwise pins.
  PREQR_KERNEL_IMPL=scalar ./build/tests/kernel_dispatch_test
  PREQR_KERNEL_IMPL=avx2 ./build/tests/kernel_dispatch_test
  PREQR_KERNEL_IMPL=avx512 ./build/tests/kernel_dispatch_test
  PREQR_KERNEL_IMPL=scalar ./build/tests/nn_ops_grad_test
  PREQR_KERNEL_IMPL=scalar ./build/tests/batch_invariance_test
  # The schema cross-attention memo (fresh-versus-memo layer bits, reload
  # and fine-tune freshness of the encoder's memo) and the
  # encoder golden pins under each forced impl, plus the fused-forward
  # parity suite (fused Gemm epilogues, SoftmaxRows, Affine, residual
  # layer norm and attention against the composed ops, forward and
  # gradients, at 1/2/8 threads; run bare, it sweeps every table). The
  # AVX2 GEMM contract suite (Avx2GemmContractTest) and the
  # AVX-512-equals-AVX2 suite (Avx512ParityTest) ride in
  # kernel_dispatch_test above.
  for impl in scalar avx2 avx512; do
    PREQR_KERNEL_IMPL=$impl ./build/tests/fused_forward_parity_test
    PREQR_KERNEL_IMPL=$impl ./build/tests/schema_kv_memo_test
    PREQR_KERNEL_IMPL=$impl ./build/tests/encoder_golden_test
    PREQR_KERNEL_IMPL=$impl ./build/tests/kernel_dispatch_test \
      --gtest_filter='Avx2GemmContractTest.*'
  done
  # UBSan over the dispatch plumbing and the deadline math: table
  # selection, the SIMD kernels' tail handling, the encode path under
  # every table and the saturating deadline arithmetic must be UB-free.
  cmake -B build-ubsan -S . -DSANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j --target kernel_dispatch_test \
    --target serving_test --target fuzz_stress_test
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
    ./build-ubsan/tests/kernel_dispatch_test
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
    ./build-ubsan/tests/serving_test \
    --gtest_filter='HistogramTest.*:DeadlineTest.*'
  UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}" \
    PREQR_FUZZ_QUERIES=300 ./build-ubsan/tests/fuzz_stress_test \
    --gtest_filter='FuzzKernelPathTest.*'
fi

if [[ "${SKIP_PLAN:-0}" == "1" ]]; then
  echo "== PLAN stage skipped (SKIP_PLAN=1) =="
else
  echo "== PLAN: planner + executor-golden + db suites under ASan, bench_planner smoke =="
  # The plan-node refactor's safety net under ASan: the golden bitwise
  # regression against the pre-refactor executor, the DP-vs-exhaustive
  # planner suite (join-graph validation statuses included), and the db
  # suite the executor split must not disturb.
  cmake -B build-asan -S . -DSANITIZE=address >/dev/null
  cmake --build build-asan -j --target planner_test \
    --target executor_golden_test --target db_test
  ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
    ./build-asan/tests/executor_golden_test
  ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
    ./build-asan/tests/planner_test
  ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}" \
    ./build-asan/tests/db_test
  # Close-the-loop smoke: every estimator plans, every plan executes, and
  # the emitted JSON must show true pinned at ratio 1.0 with PG strictly
  # worse somewhere on the correlated workload.
  PREQR_BENCH_FAST=1 PREQR_BENCH_PLANNER_JSON=build/BENCH_planner.json \
    ./build/bench/bench_planner
  python3 - <<'EOF'
import json
with open("build/BENCH_planner.json") as f:
    doc = json.load(f)
rows = doc["estimators"]
assert doc["queries"] >= 5, f"too few planned queries: {doc['queries']}"
assert [r["name"] for r in rows] == ["true", "pg", "preqr"], \
    f"estimator rows: {[r['name'] for r in rows]}"
for r in rows:
    for key in ("mean_ratio", "max_ratio", "picked_optimal",
                "executed_units"):
        assert key in r, f"missing {key} in {r}"
    assert r["mean_ratio"] >= 1.0 - 1e-9, f"ratio below optimal: {r}"
true_row = rows[0]
assert true_row["mean_ratio"] <= 1.0 + 1e-6, \
    f"true estimator not executed-optimal: {true_row}"
assert true_row["picked_optimal"] == doc["queries"], \
    f"true estimator missed an optimum: {true_row}"
assert doc["pg_worse_than_true"] >= 1, \
    "PG never picked a worse plan than true on the correlated workload"
print("BENCH_planner.json schema ok:", doc["queries"], "queries,",
      f"pg worse on {doc['pg_worse_than_true']}")
EOF
fi

if [[ "${SKIP_POOL_DEBUG:-0}" != "1" ]]; then
  echo "== POOL_DEBUG: NaN-poisoned buffer recycling =="
  cmake -B build-pooldebug -S . -DPREQR_POOL_DEBUG=ON >/dev/null
  cmake --build build-pooldebug -j --target nn_tensor_test \
    --target nn_ops_grad_test --target grad_mode_test \
    --target buffer_pool_test --target serving_test \
    --target batch_invariance_test
  ./build-pooldebug/tests/nn_tensor_test
  ./build-pooldebug/tests/nn_ops_grad_test
  ./build-pooldebug/tests/grad_mode_test
  ./build-pooldebug/tests/buffer_pool_test
  ./build-pooldebug/tests/serving_test
  ./build-pooldebug/tests/batch_invariance_test
fi

echo "== all checks passed =="
