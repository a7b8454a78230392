/**
 * @file
 * google-benchmark micro-benchmarks backing the paper's complexity
 * claims (Sec. IV): CA-DD scales as O(d^2 n) and CA-EC as O(d n)
 * in circuit depth d and device size n.  CA-DD grows near-linearly
 * within that bound (docs/passes.md, "CA-DD cost"): BM_CaDdPass is
 * fitted O(d) over depth at 16 qubits, and the *IdleChain rows fit
 * both DD passes O(n) over device size on the idle-heavy chain of
 * the DD workloads.  Also covers the supporting machinery
 * (scheduling, twirling, colouring).
 */

#include <benchmark/benchmark.h>

#include "bench_common.hh"
#include "experiments/ramsey.hh"
#include "passes/pipeline.hh"

using namespace casq;

namespace {

/** Alternating ECR / SX layers on a chain of n qubits. */
LayeredCircuit
syntheticWorkload(std::size_t n, int depth)
{
    return bench::syntheticChainWorkload(n, depth,
                                         /*idle_layers=*/false);
}

Backend
chainBackend(std::size_t n)
{
    return makeFakeLinear(n, 7);
}

void
BM_ScheduleAsap(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    const Backend backend = chainBackend(n);
    const Circuit flat =
        syntheticWorkload(n, int(state.range(1))).flatten();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            scheduleASAP(flat, backend.durations()));
    }
    state.SetComplexityN(state.range(1));
}

void
BM_CaDdPass(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    const Backend backend = chainBackend(n);
    const ScheduledCircuit sched = scheduleASAP(
        syntheticWorkload(n, int(state.range(1))).flatten(),
        backend.durations());
    for (auto _ : state)
        benchmark::DoNotOptimize(applyCaDd(sched, backend));
    state.SetComplexityN(state.range(1));
}

/** The idle-heavy chain (delay layers) at depth 16, scheduled. */
ScheduledCircuit
idleChainSchedule(const Backend &backend, std::size_t n)
{
    return scheduleASAP(
        bench::syntheticChainWorkload(n, 16, /*idle_layers=*/true)
            .flatten(),
        backend.durations());
}

void
BM_CaDdPassIdleChain(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    const Backend backend = chainBackend(n);
    const ScheduledCircuit sched = idleChainSchedule(backend, n);
    for (auto _ : state)
        benchmark::DoNotOptimize(applyCaDd(sched, backend));
    state.SetComplexityN(state.range(0));
}

void
BM_UniformDdPassIdleChain(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    const Backend backend = chainBackend(n);
    const ScheduledCircuit sched = idleChainSchedule(backend, n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(applyUniformDd(
            sched, backend.durations(), UniformDdStyle::Aligned));
    }
    state.SetComplexityN(state.range(0));
}

void
BM_CaEcPass(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    const Backend backend = chainBackend(n);
    const LayeredCircuit circuit =
        syntheticWorkload(n, int(state.range(1)));
    for (auto _ : state)
        benchmark::DoNotOptimize(applyCaEc(circuit, backend));
    state.SetComplexityN(state.range(1));
}

void
BM_PauliTwirl(benchmark::State &state)
{
    const LayeredCircuit circuit =
        syntheticWorkload(std::size_t(state.range(0)), 16);
    Rng rng(3);
    TwirlTableCache cache;
    for (auto _ : state)
        benchmark::DoNotOptimize(pauliTwirl(circuit, rng, cache));
}

void
BM_FullPipelineCompile(benchmark::State &state)
{
    const std::size_t n = 12;
    const Backend backend = chainBackend(n);
    const LayeredCircuit circuit =
        syntheticWorkload(n, int(state.range(0)));
    CompileOptions options;
    options.strategy = Strategy::Combined;
    Rng rng(11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            compileCircuit(circuit, backend, options, rng));
    }
}

void
BM_BuildPipeline(benchmark::State &state)
{
    CompileOptions options;
    options.strategy = Strategy::Combined;
    for (auto _ : state)
        benchmark::DoNotOptimize(buildPipeline(options));
}

void
BM_PipelineCompileReusedManager(benchmark::State &state)
{
    // Same workload as BM_FullPipelineCompile, but the manager (and
    // thus the twirl conjugation-table cache) persists across
    // compiles -- the ensemble-compilation hot path.
    const std::size_t n = 12;
    const Backend backend = chainBackend(n);
    const LayeredCircuit circuit =
        syntheticWorkload(n, int(state.range(0)));
    CompileOptions options;
    options.strategy = Strategy::Combined;
    PassManager pipeline = buildPipeline(options);
    Rng rng(11);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pipeline.compile(circuit, backend, rng));
    }
}

void
BM_CompileEnsemble(benchmark::State &state)
{
    const std::size_t n = 12;
    const Backend backend = chainBackend(n);
    const LayeredCircuit circuit = syntheticWorkload(n, 16);
    CompileOptions options;
    options.strategy = Strategy::Combined;
    for (auto _ : state) {
        benchmark::DoNotOptimize(compileEnsemble(
            circuit, backend, options, int(state.range(0)), 11));
    }
}

} // namespace

BENCHMARK(BM_ScheduleAsap)
    ->Args({16, 8})
    ->Args({16, 16})
    ->Args({16, 32})
    ->Args({64, 16});

// Depth sweep at a fixed device size; device-size scaling is the
// *IdleChain families below, fitted over n.
BENCHMARK(BM_CaDdPass)
    ->Args({16, 4})
    ->Args({16, 8})
    ->Args({16, 16})
    ->Args({16, 32})
    ->Complexity(benchmark::oN);

BENCHMARK(BM_CaDdPassIdleChain)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Complexity(benchmark::oN);

BENCHMARK(BM_UniformDdPassIdleChain)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Complexity(benchmark::oN);

BENCHMARK(BM_CaEcPass)
    ->Args({16, 8})
    ->Args({16, 16})
    ->Args({16, 32})
    ->Args({16, 64})
    ->Args({64, 16})
    ->Complexity(benchmark::oN);

BENCHMARK(BM_PauliTwirl)->Arg(8)->Arg(16)->Arg(32);

BENCHMARK(BM_FullPipelineCompile)->Arg(8)->Arg(16);

BENCHMARK(BM_BuildPipeline);

BENCHMARK(BM_PipelineCompileReusedManager)->Arg(8)->Arg(16);

BENCHMARK(BM_CompileEnsemble)->Arg(4)->Arg(16);

BENCHMARK_MAIN();
