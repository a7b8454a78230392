/**
 * @file
 * SimulationEngine: thread-count invariance of the observable
 * estimates (slot accumulation + fixed-order pairwise reduction),
 * exactness of the compiled-variant cache, equivalence of the fused
 * compile->simulate ensemble path with the unfused reference, and
 * pinned bits of a heterogeneous-register variant mix.
 */

#include <type_traits>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"
#include "experiments/ramsey.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"

namespace casq {
namespace {

// The engine borrows its backend, so a temporary must not bind.
static_assert(std::is_constructible_v<SimulationEngine, const Backend &,
                                      const NoiseModel &>);
static_assert(!std::is_constructible_v<SimulationEngine, Backend &&,
                                       const NoiseModel &>);

Backend
noisyBackend()
{
    Backend backend = makeFakeLinear(4, 1);
    backend.pair(0, 1).zzRateMHz = 0.08;
    backend.pair(1, 2).zzRateMHz = 0.05;
    backend.qubit(0).quasiStaticSigmaMHz = 0.02;
    return backend;
}

/** Gates + idles so every noise mechanism has work to do. */
LayeredCircuit
workload()
{
    LayeredCircuit circuit =
        buildCaseControlControl(4, 1, 0, 2, 3, 2);
    Layer idle{LayerKind::OneQubit, {}};
    for (std::uint32_t q = 0; q < 4; ++q)
        idle.insts.emplace_back(Op::Delay,
                                std::vector<std::uint32_t>{q},
                                std::vector<double>{900.0});
    circuit.addLayer(std::move(idle));
    return circuit;
}

std::vector<PauliString>
observables()
{
    return {PauliString::fromLabel("XIII"),
            PauliString::fromLabel("IZZI"),
            PauliString::fromLabel("ZZZZ")};
}

/** Bit-exact RunResult comparison (no tolerance). */
void
expectBitIdentical(const RunResult &a, const RunResult &b,
                   const std::string &label)
{
    ASSERT_EQ(a.means.size(), b.means.size()) << label;
    ASSERT_EQ(a.stderrs.size(), b.stderrs.size()) << label;
    EXPECT_EQ(a.trajectories, b.trajectories) << label;
    for (std::size_t k = 0; k < a.means.size(); ++k) {
        EXPECT_EQ(a.means[k], b.means[k])
            << label << " mean " << k;
        EXPECT_EQ(a.stderrs[k], b.stderrs[k])
            << label << " stderr " << k;
    }
}

TEST(Engine, RunIsByteIdenticalAcrossThreadCounts)
{
    const Backend backend = noisyBackend();
    const LayeredCircuit circuit = workload();
    const auto ensemble = compileEnsemble(
        circuit, backend, CompileOptions{}, 5, 11);

    SimulationEngine engine(backend, NoiseModel::standard());
    ExecutionOptions opts;
    opts.trajectories = 97; // odd: uneven blocks in every split
    opts.seed = 2024;

    opts.threads = 1;
    const RunResult reference =
        engine.run(ensemble, observables(), opts);
    for (int threads : {2, 8}) {
        opts.threads = threads;
        expectBitIdentical(
            engine.run(ensemble, observables(), opts), reference,
            "threads=" + std::to_string(threads));
    }
}

TEST(Engine, FusedEnsembleIsByteIdenticalAcrossThreadCounts)
{
    const Backend backend = noisyBackend();
    const LayeredCircuit circuit = workload();
    SimulationEngine engine(backend, NoiseModel::standard());
    PassManager pipeline = buildPipeline(Strategy::CaDd);

    EnsembleRunOptions opts;
    opts.instances = 6;
    opts.compileSeed = 7;
    opts.trajectories = 61;
    opts.seed = 99;

    opts.threads = 1;
    const RunResult reference =
        engine.runEnsemble(circuit, pipeline, observables(), opts);
    for (int threads : {2, 8}) {
        opts.threads = threads;
        expectBitIdentical(
            engine.runEnsemble(circuit, pipeline, observables(),
                               opts),
            reference, "threads=" + std::to_string(threads));
    }
}

TEST(Engine, FusedEnsembleMatchesCompileThenRun)
{
    const Backend backend = noisyBackend();
    const LayeredCircuit circuit = workload();
    PassManager pipeline = buildPipeline(Strategy::CaDd);

    // Unfused reference: materialize the schedules, then simulate.
    const auto ensemble =
        compileEnsemble(circuit, backend, pipeline, 6, 7, 1);
    SimulationEngine unfused(backend, NoiseModel::standard());
    ExecutionOptions exec;
    exec.trajectories = 61;
    exec.seed = 99;
    exec.threads = 1;
    const RunResult reference =
        unfused.run(ensemble, observables(), exec);

    // Fused path on a fresh engine and pipeline, parallel.
    PassManager pipeline2 = buildPipeline(Strategy::CaDd);
    SimulationEngine fused(backend, NoiseModel::standard());
    EnsembleRunOptions opts;
    opts.instances = 6;
    opts.compileSeed = 7;
    opts.trajectories = 61;
    opts.seed = 99;
    opts.threads = 4;
    expectBitIdentical(
        fused.runEnsemble(circuit, pipeline2, observables(), opts),
        reference, "fused vs compile+run");
}

TEST(Engine, FusedEnsembleCompilesOnlyExecutedInstances)
{
    // Fewer trajectories than instances: trajectory t executes
    // instance t mod 6, so instances 4 and 5 run nothing and must
    // not be compiled into the variant cache.
    const Backend backend = noisyBackend();
    const LayeredCircuit circuit = workload();
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    const auto ensemble =
        compileEnsemble(circuit, backend, pipeline, 6, 7, 1);
    SimulationEngine unfused(backend, NoiseModel::standard());
    ExecutionOptions exec;
    exec.trajectories = 4;
    exec.seed = 99;
    exec.threads = 1;
    const RunResult reference =
        unfused.run(ensemble, observables(), exec);

    PassManager pipeline2 = buildPipeline(Strategy::CaDd);
    SimulationEngine fused(backend, NoiseModel::standard());
    EnsembleRunOptions opts;
    opts.instances = 6;
    opts.compileSeed = 7;
    opts.trajectories = 4;
    opts.seed = 99;
    opts.threads = 2;
    expectBitIdentical(
        fused.runEnsemble(circuit, pipeline2, observables(), opts),
        reference, "fused vs compile+run");
    EXPECT_EQ(fused.variantCacheMisses(), 4u);
    EXPECT_EQ(fused.variantCacheSize(), 4u);
}

TEST(Engine, RunBuildsOnlyExecutedVariants)
{
    // The run() twin of FusedEnsembleCompilesOnlyExecutedInstances:
    // trajectory t executes variant t mod 6, so variants 4 and 5
    // run nothing and must not be built into the variant cache.
    const Backend backend = noisyBackend();
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    const auto ensemble =
        compileEnsemble(workload(), backend, pipeline, 6, 7, 1);
    for (int threads : {1, 2}) {
        SimulationEngine engine(backend, NoiseModel::standard());
        ExecutionOptions opts;
        opts.trajectories = 4;
        opts.seed = 99;
        opts.threads = threads;
        EXPECT_EQ(engine.run(ensemble, observables(), opts).trajectories,
                  4);
        EXPECT_EQ(engine.variantCacheMisses(), 4u) << threads;
        EXPECT_EQ(engine.variantCacheSize(), 4u) << threads;
    }
}

TEST(Engine, VariantCacheReturnsIdenticalResultsToColdCompile)
{
    const Backend backend = noisyBackend();
    const LayeredCircuit circuit = workload();
    const auto ensemble = compileEnsemble(
        circuit, backend, CompileOptions{}, 4, 3);

    ExecutionOptions opts;
    opts.trajectories = 40;
    opts.seed = 5;
    opts.threads = 2;

    SimulationEngine warm(backend, NoiseModel::standard());
    const RunResult first = warm.run(ensemble, observables(), opts);
    EXPECT_EQ(warm.variantCacheHits(), 0u);
    EXPECT_EQ(warm.variantCacheMisses(), 4u);
    EXPECT_EQ(warm.variantCacheSize(), 4u);

    // Second run is served entirely from the cache...
    const RunResult cached = warm.run(ensemble, observables(), opts);
    EXPECT_EQ(warm.variantCacheHits(), 4u);
    EXPECT_EQ(warm.variantCacheMisses(), 4u);
    expectBitIdentical(cached, first, "cached vs first");

    // ...and matches a cold engine with the cache disabled.
    SimulationEngine cold(backend, NoiseModel::standard());
    ExecutionOptions uncached = opts;
    uncached.cacheVariants = false;
    expectBitIdentical(cold.run(ensemble, observables(), uncached),
                       first, "cold vs warm");
    EXPECT_EQ(cold.variantCacheSize(), 0u);

    warm.clearVariantCache();
    EXPECT_EQ(warm.variantCacheSize(), 0u);
}

TEST(Engine, VariantCacheEpochEvictionAcrossCapacityBoundary)
{
    // The cache holds at most variantCacheCapacity() compiled
    // variants; an insert beyond that resets the WHOLE cache (epoch
    // eviction) before inserting.  Pin the hit/miss/size counters
    // across that boundary, which the other tests never reach.
    const Backend backend = makeFakeLinear(2, 1);
    SimulationEngine engine(backend, NoiseModel::standard());
    const std::size_t cap = SimulationEngine::variantCacheCapacity();

    ExecutionOptions opts;
    opts.trajectories = 1;
    opts.seed = 3;
    opts.threads = 1;
    const std::vector<PauliString> obs{
        PauliString::fromLabel("ZI")};
    // Distinct rz angles give pairwise distinct schedules, so every
    // i names its own cache entry.
    const auto schedule_of = [&](std::size_t i) {
        Circuit circuit(2, 0);
        circuit.rz(0, 1e-3 * double(i + 1)).sx(0);
        return scheduleASAP(circuit, backend.durations());
    };

    // Fill to capacity: all misses, nothing evicted.
    for (std::size_t i = 0; i < cap; ++i)
        engine.run(schedule_of(i), obs, opts);
    EXPECT_EQ(engine.variantCacheSize(), cap);
    EXPECT_EQ(engine.variantCacheMisses(), cap);
    EXPECT_EQ(engine.variantCacheHits(), 0u);

    // A working set that fits the bound never loses an entry.
    engine.run(schedule_of(0), obs, opts);
    EXPECT_EQ(engine.variantCacheHits(), 1u);
    EXPECT_EQ(engine.variantCacheSize(), cap);

    // One past capacity: the epoch flips, so the new entry is the
    // only survivor...
    const RunResult cold = engine.run(schedule_of(cap), obs, opts);
    EXPECT_EQ(engine.variantCacheSize(), 1u);
    EXPECT_EQ(engine.variantCacheMisses(), cap + 1);
    EXPECT_EQ(engine.variantCacheHits(), 1u);

    // ...pre-boundary schedules recompile (a miss, re-cached)...
    engine.run(schedule_of(0), obs, opts);
    EXPECT_EQ(engine.variantCacheMisses(), cap + 2);
    EXPECT_EQ(engine.variantCacheSize(), 2u);

    // ...post-boundary schedules hit, with bit-identical results.
    const RunResult warm = engine.run(schedule_of(cap), obs, opts);
    EXPECT_EQ(engine.variantCacheHits(), 2u);
    EXPECT_EQ(engine.variantCacheSize(), 2u);
    expectBitIdentical(warm, cold, "across the epoch boundary");
}

TEST(Engine, ClassicalRegisterSizedToWidestVariant)
{
    // Variant 0 has no classical bits; variant 1 measures into bit
    // 2 and conditions on it.  Each variant's runner is sized to
    // that variant's own register (the register is cleared every
    // trajectory, so its size cannot move a bit).  The hexfloats
    // were captured when one runner, sized to the widest variant,
    // still served every variant of run().
    const Backend backend = noisyBackend();
    Circuit plain(4, 0);
    plain.h(0);
    Circuit dynamic(4, 3);
    dynamic.h(0).measure(1, 2);
    dynamic.x(2).conditionedOn(2, 1);

    const std::vector<ScheduledCircuit> variants{
        scheduleASAP(plain, backend.durations()),
        scheduleASAP(dynamic, backend.durations())};

    const std::vector<double> means{0x0p+0, 0x1p+0,
                                    0x1.063f355e331b8p-8};
    const std::vector<double> stderrs{0x0p+0, 0x0p+0,
                                      0x1.0ed8f1f5e2c6p-10};
    for (int threads : {1, 3}) {
        SimulationEngine engine(backend, NoiseModel::standard());
        ExecutionOptions opts;
        opts.trajectories = 16;
        opts.seed = 1;
        opts.threads = threads;
        const RunResult result =
            engine.run(variants, observables(), opts);
        EXPECT_EQ(result.trajectories, 16);
        EXPECT_EQ(result.means, means) << "threads=" << threads;
        EXPECT_EQ(result.stderrs, stderrs) << "threads=" << threads;
    }
}

TEST(EngineDeath, AnyVariantWidthMismatchRejected)
{
    const Backend backend = noisyBackend();
    Circuit ok(4, 0);
    ok.h(0);
    Circuit bad(3, 0);
    bad.h(0);
    const std::vector<ScheduledCircuit> variants{
        scheduleASAP(ok, backend.durations()),
        scheduleASAP(bad, backend.durations())};
    SimulationEngine engine(backend, NoiseModel::standard());
    EXPECT_DEATH(engine.run(variants, observables(), {}), "width");

    // Rejected even when no trajectory executes the bad variant.
    ExecutionOptions one;
    one.trajectories = 1;
    EXPECT_DEATH(engine.run(variants, observables(), one), "width");
}

TEST(Engine, EnsembleRunOptionsExtendExecutionOptions)
{
    // One declaration per simulation field; only the thread default
    // differs between the two option types.
    const ExecutionOptions exec;
    const EnsembleRunOptions ens;
    const ExecutionOptions &base = ens;
    EXPECT_EQ(exec.threads, 2);
    EXPECT_EQ(base.threads, 1);
    EXPECT_EQ(base.trajectories, exec.trajectories);
    EXPECT_EQ(base.seed, exec.seed);
    EXPECT_EQ(base.cacheVariants, exec.cacheVariants);
    EXPECT_EQ(base.backend, exec.backend);
    EXPECT_EQ(base.prefixState, exec.prefixState);
    EXPECT_EQ(ens.instances, 8);
    EXPECT_EQ(ens.compileSeed, 0u);
    EXPECT_TRUE(ens.prefixCache);
}

TEST(Engine, ResolveThreadsConvention)
{
    EXPECT_EQ(ThreadPool::resolveThreads(0),
              ThreadPool::hardwareThreads());
    EXPECT_EQ(ThreadPool::resolveThreads(1), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(7), 7u);
}

} // namespace
} // namespace casq
