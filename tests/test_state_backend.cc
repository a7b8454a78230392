/**
 * @file
 * StateBackend seam (sim/backend.hh): agreement of the stabilizer
 * tableau with the dense statevector on Clifford workloads through
 * the exact kernel surface the engine drives, cross-backend RNG
 * parity of measurement, the per-variant Clifford-eligibility
 * routing of SimBackendKind::Auto, and the determinism contract --
 * stabilizer estimates within 1e-12 of dense, bit-identical across
 * thread counts and shard decompositions, and dense bit-identical
 * whether requested directly or reached through Auto's fallback.
 */

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "circuit/unitary.hh"
#include "common/serialize.hh"
#include "passes/pipeline.hh"
#include "sim/backend.hh"
#include "sim/engine.hh"
#include "sim/shard.hh"
#include "sim/stabilizer.hh"
#include "sim/statevector.hh"

namespace casq {
namespace {

constexpr double kPi = 3.14159265358979323846;

/** Both substrates of one n-qubit state, driven in lockstep. */
struct BackendPair
{
    Statevector dense;
    StabilizerBackend tableau;

    explicit BackendPair(std::size_t n) : dense(n), tableau(n) {}

    template <typename Fn>
    void
    both(const Fn &fn)
    {
        fn(static_cast<StateBackend &>(dense));
        fn(static_cast<StateBackend &>(tableau));
    }

    void
    expectAgree(const PauliString &p, const std::string &label)
    {
        EXPECT_NEAR(dense.expectation(p), tableau.expectation(p),
                    1e-12)
            << label << " <" << p.toString() << ">";
    }

    /** Compare every single-qubit Z and nearest-neighbour ZZ. */
    void
    expectZAgreement(const std::string &label)
    {
        const std::size_t n = dense.numQubits();
        for (std::size_t q = 0; q < n; ++q)
            expectAgree(PauliString::single(n, q, PauliOp::Z),
                        label);
        for (std::size_t q = 0; q + 1 < n; ++q) {
            PauliString zz = PauliString::single(n, q, PauliOp::Z);
            zz.setOp(q + 1, PauliOp::Z);
            expectAgree(zz, label);
        }
    }
};

/** The single-qubit Clifford generators the engine fires as 2x2s. */
const std::vector<Op> kClifford1q{Op::I,  Op::X,    Op::Y,
                                  Op::Z,  Op::H,    Op::S,
                                  Op::Sdg, Op::SX,  Op::SXdg};

/** Two-qubit Cliffords, including the native echoed gates. */
const std::vector<Op> kClifford2q{Op::CX, Op::CZ, Op::ECR,
                                  Op::Swap};

TEST(StateBackend, KindNamesRoundTrip)
{
    for (SimBackendKind kind :
         {SimBackendKind::Auto, SimBackendKind::Dense,
          SimBackendKind::Stabilizer}) {
        const auto parsed =
            simBackendKindFromName(simBackendKindName(kind));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, kind);
    }
    EXPECT_FALSE(simBackendKindFromName("tensor").has_value());
    EXPECT_FALSE(simBackendKindFromName("").has_value());
}

TEST(StateBackend, MakeStateBackendBuildsTheRequestedKind)
{
    EXPECT_EQ(makeStateBackend(SimBackendKind::Dense, 3)->kind(),
              SimBackendKind::Dense);
    EXPECT_EQ(
        makeStateBackend(SimBackendKind::Stabilizer, 3)->kind(),
        SimBackendKind::Stabilizer);
}

TEST(StateBackend, DenseBackendDelegatesToStatevector)
{
    // The dense backend is the Statevector itself: calls through the
    // seam land in its kernels with no forwarding layer between.
    Statevector sv(2);
    StateBackend &backend = sv;
    EXPECT_EQ(backend.kind(), SimBackendKind::Dense);
    EXPECT_EQ(backend.numQubits(), 2u);
    backend.applyGate1q(gateUnitary(Op::H), 0);
    backend.applyGate2q(gateUnitary(Op::CX), 0, 1);
    EXPECT_NEAR(sv.expectation(PauliString::fromLabel("ZZ")), 1.0,
                1e-12);
    EXPECT_NEAR(backend.expectation(PauliString::fromLabel("XX")),
                1.0, 1e-12);
    backend.reset();
    EXPECT_NEAR(backend.probabilityOne(1), 0.0, 1e-12);
    EXPECT_EQ(sv.amplitudes()[0], Complex(1.0));
}

TEST(StabilizerVsDense, NamedCliffordStatesAgree)
{
    // GHZ: H 0; CX 0->1; CX 1->2.
    BackendPair ghz(3);
    ghz.both([](StateBackend &s) {
        s.applyGate1q(gateUnitary(Op::H), 0);
        s.applyGate2q(gateUnitary(Op::CX), 0, 1);
        s.applyGate2q(gateUnitary(Op::CX), 1, 2);
    });
    ghz.expectZAgreement("ghz");
    ghz.expectAgree(PauliString::fromLabel("XXX"), "ghz");
    ghz.expectAgree(PauliString::fromLabel("YYX"), "ghz");
    ghz.expectAgree(PauliString::fromLabel("ZIZ"), "ghz");

    // |i> x |-> via S H and H Z.
    BackendPair axes(2);
    axes.both([](StateBackend &s) {
        s.applyGate1q(gateUnitary(Op::H), 0);
        s.applyGate1q(gateUnitary(Op::S), 0);
        s.applyGate1q(gateUnitary(Op::Z), 1);
        s.applyGate1q(gateUnitary(Op::H), 1);
    });
    for (const char *label : {"YI", "IX", "YX", "ZI", "IZ", "XI"})
        axes.expectAgree(PauliString::fromLabel(label), "axes");
}

TEST(StabilizerVsDense, RandomCliffordCircuitsAgree)
{
    const std::size_t n = 5;
    for (std::uint64_t seed : {11u, 23u, 47u, 95u}) {
        Rng rng(seed);
        BackendPair pair(n);
        for (int step = 0; step < 64; ++step) {
            if (rng.uniform() < 0.6) {
                const Op op = kClifford1q[rng.uniformInt(
                    kClifford1q.size())];
                const auto q =
                    std::uint32_t(rng.uniformInt(n));
                pair.both([&](StateBackend &s) {
                    s.applyGate1q(gateUnitary(op), q);
                });
            } else {
                const Op op = kClifford2q[rng.uniformInt(
                    kClifford2q.size())];
                const auto q0 =
                    std::uint32_t(rng.uniformInt(n));
                auto q1 = std::uint32_t(rng.uniformInt(n - 1));
                if (q1 >= q0)
                    ++q1;
                pair.both([&](StateBackend &s) {
                    s.applyGate2q(gateUnitary(op), q0, q1);
                });
            }
            if (step % 8 == 7) {
                pair.expectZAgreement(
                    "seed " + std::to_string(seed) + " step " +
                    std::to_string(step));
            }
        }
    }
}

TEST(StabilizerVsDense, QuarterTurnPhaseKernelsAgree)
{
    BackendPair pair(4);
    pair.both([](StateBackend &s) {
        for (std::uint32_t q = 0; q < 4; ++q)
            s.applyGate1q(gateUnitary(Op::H), q);
    });
    // Mixed fused kernel: Rz quarter turns + Rzz quarter turns,
    // including negative multiples and whole turns.
    const std::vector<QubitAngle> z{
        {0, kPi / 2}, {1, kPi}, {2, -kPi / 2}, {3, 2 * kPi}};
    const std::vector<PairAngle> zz{
        {0, 1, kPi / 2}, {1, 2, kPi}, {2, 3, -3 * kPi / 2}};
    pair.both(
        [&](StateBackend &s) { s.applyPhases(z, zz); });
    pair.expectZAgreement("fused");
    for (const char *label : {"XIII", "IYII", "XYII", "IIXX"})
        pair.expectAgree(PauliString::fromLabel(label), "fused");

    pair.both([](StateBackend &s) {
        s.applyRz(0, kPi / 2);
        s.applyRz(2, -kPi);
    });
    pair.expectAgree(PauliString::fromLabel("YIII"), "rz");
    pair.expectAgree(PauliString::fromLabel("IIXI"), "rz");
}

TEST(StabilizerVsDense, PauliInjectionAgrees)
{
    // Pauli injection is the depolarizing/twirl hook the engine
    // fires most often; exercise every enum on a non-trivial state.
    BackendPair pair(3);
    pair.both([](StateBackend &s) {
        s.applyGate1q(gateUnitary(Op::H), 0);
        s.applyGate2q(gateUnitary(Op::ECR), 0, 1);
        s.applyGate1q(gateUnitary(Op::S), 2);
    });
    for (PauliOp op : {PauliOp::X, PauliOp::Y, PauliOp::Z}) {
        for (std::uint32_t q = 0; q < 3; ++q) {
            pair.both([&](StateBackend &s) {
                s.applyPauliOp(op, q);
            });
            pair.expectZAgreement("pauli");
        }
    }
}

TEST(StabilizerVsDense, MeasurementConsumesTheSameRngStream)
{
    // Same-seed streams must collapse both substrates onto the same
    // branch: measure() is shared (non-virtual) exactly for this.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        BackendPair pair(3);
        pair.both([](StateBackend &s) {
            s.applyGate1q(gateUnitary(Op::H), 0);
            s.applyGate2q(gateUnitary(Op::CX), 0, 1);
            s.applyGate1q(gateUnitary(Op::H), 2);
        });
        Rng dense_rng(seed);
        Rng tableau_rng(seed);
        for (std::uint32_t q = 0; q < 3; ++q) {
            const int dense_bit =
                pair.dense.measure(q, dense_rng);
            const int tableau_bit =
                pair.tableau.measure(q, tableau_rng);
            EXPECT_EQ(dense_bit, tableau_bit)
                << "seed " << seed << " qubit " << q;
        }
        pair.expectZAgreement("post-measurement seed " +
                              std::to_string(seed));
        // Entangled pair must have collapsed consistently.
        EXPECT_EQ(pair.tableau.probabilityOne(0),
                  pair.tableau.probabilityOne(1));
    }
}

TEST(StabilizerBackend, DeterministicMeasurementDrawsNoBranch)
{
    StabilizerBackend tableau(2);
    tableau.applyGate1q(gateUnitary(Op::X), 0);
    EXPECT_TRUE(tableau.isDeterministicZ(0));
    EXPECT_EQ(tableau.probabilityOne(0), 1.0);
    EXPECT_EQ(tableau.probabilityOne(1), 0.0);

    tableau.applyGate1q(gateUnitary(Op::H), 1);
    EXPECT_FALSE(tableau.isDeterministicZ(1));
    EXPECT_EQ(tableau.probabilityOne(1), 0.5);

    Rng rng(7);
    EXPECT_EQ(tableau.measure(0, rng), 1);
    tableau.reset();
    EXPECT_EQ(tableau.probabilityOne(0), 0.0);
    EXPECT_NEAR(tableau.expectation(PauliString::fromLabel("ZZ")),
                1.0, 0.0);
}

TEST(StabilizerBackend, QuarterTurnQuantizationRule)
{
    for (int k = -8; k <= 8; ++k) {
        const auto turns =
            StabilizerBackend::quarterTurns(k * kPi / 2);
        ASSERT_TRUE(turns.has_value()) << "k=" << k;
        EXPECT_EQ(*turns, ((k % 4) + 4) % 4) << "k=" << k;
    }
    // Tolerance window: 1e-10 off a quarter turn still quantizes.
    EXPECT_TRUE(StabilizerBackend::quarterTurns(kPi / 2 + 1e-10)
                    .has_value());
    for (double theta : {0.3, kPi / 4, 1.0, -2.0})
        EXPECT_FALSE(
            StabilizerBackend::quarterTurns(theta).has_value())
            << theta;
}

TEST(StateBackendDeath, NonCliffordInputFailsLoudly)
{
    StabilizerBackend tableau(2);
    EXPECT_DEATH(tableau.applyGate1q(gateUnitary(Op::T), 0),
                 "non-Clifford 1q unitary");
    EXPECT_DEATH(
        tableau.applyGate2q(gateUnitary(Op::RZZ, {0.3}), 0, 1),
        "non-Clifford 2q unitary");
    EXPECT_DEATH(tableau.applyRz(0, 0.7), "non-Clifford Rz angle");
    Rng rng(1);
    EXPECT_DEATH(tableau.amplitudeDamp(0, 100.0, 50.0, rng),
                 "not a Clifford channel");
}

TEST(StateBackendDeath, AssignNeedsSameKindAndWidth)
{
    // assign() is the prefix-state fork primitive; a fork across
    // substrates or widths must die, not copy garbage.
    Statevector dense(2);
    const Statevector wider(3);
    StabilizerBackend tableau(2);
    EXPECT_DEATH(dense.assign(tableau),
                 "assign needs a dense backend of the same width");
    EXPECT_DEATH(dense.assign(wider),
                 "assign needs a dense backend of the same width");
    EXPECT_DEATH(tableau.assign(dense),
                 "assign needs a stabilizer backend of the same "
                 "width");
}

// --------------------------------------------- engine routing

/** ECR/idle chain, the stock twirled estimator workload. */
LayeredCircuit
chainWorkload(std::size_t qubits, int depth)
{
    return bench::syntheticChainWorkload(qubits, depth,
                                         /*idle_layers=*/true);
}

std::vector<PauliString>
zObservables(std::size_t qubits)
{
    std::vector<PauliString> obs;
    for (std::uint32_t q = 0; q < qubits; ++q)
        obs.push_back(
            PauliString::single(qubits, q, PauliOp::Z));
    return obs;
}

/** Bit-exact RunResult comparison (no tolerance). */
void
expectBitIdentical(const RunResult &a, const RunResult &b,
                   const std::string &label)
{
    ASSERT_EQ(a.means.size(), b.means.size()) << label;
    EXPECT_EQ(a.trajectories, b.trajectories) << label;
    for (std::size_t k = 0; k < a.means.size(); ++k) {
        EXPECT_EQ(a.means[k], b.means[k]) << label << " mean " << k;
        EXPECT_EQ(a.stderrs[k], b.stderrs[k])
            << label << " stderr " << k;
    }
}

EnsembleRunOptions
ensembleOptions(SimBackendKind backend, int threads = 1)
{
    EnsembleRunOptions opts;
    opts.instances = 5;
    opts.compileSeed = 17;
    opts.trajectories = 41;
    opts.seed = 404;
    opts.threads = threads;
    opts.backend = backend;
    return opts;
}

TEST(BackendRouting, DefaultsStayOnTheDensePath)
{
    // Library defaults must keep historical byte streams: routing
    // to the tableau is opt-in (Auto/Stabilizer).
    EXPECT_EQ(ExecutionOptions{}.backend, SimBackendKind::Dense);
    EXPECT_EQ(EnsembleRunOptions{}.backend, SimBackendKind::Dense);
    EXPECT_EQ(ShardSpec{}.simBackend, SimBackendKind::Dense);
    EXPECT_EQ(ShardSpec{}.noise, NoiseModel::standard());
}

TEST(BackendRouting, AutoRoutesTwirledPauliNoiseToStabilizer)
{
    // Twirl frames + DD pulses + Pauli-only noise: everything is
    // Clifford, so every trajectory must ride the tableau.
    const Backend backend = makeFakeLinear(4, 1);
    SimulationEngine engine(backend, NoiseModel::pauliOnly());
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    const RunResult result = engine.runEnsemble(
        chainWorkload(4, 3), pipeline, zObservables(4),
        ensembleOptions(SimBackendKind::Auto));
    EXPECT_EQ(result.stabilizerTrajectories,
              std::uint64_t(result.trajectories));
    EXPECT_GT(result.trajectories, 0);
}

TEST(BackendRouting, StabilizerAgreesWithDenseWithin1e12)
{
    const Backend backend = makeFakeLinear(4, 1);
    SimulationEngine engine(backend, NoiseModel::pauliOnly());
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    const LayeredCircuit circuit = chainWorkload(4, 3);
    const auto obs = zObservables(4);

    const RunResult dense = engine.runEnsemble(
        circuit, pipeline, obs,
        ensembleOptions(SimBackendKind::Dense));
    const RunResult tableau = engine.runEnsemble(
        circuit, pipeline, obs,
        ensembleOptions(SimBackendKind::Stabilizer));
    ASSERT_EQ(dense.means.size(), tableau.means.size());
    EXPECT_EQ(tableau.stabilizerTrajectories,
              std::uint64_t(tableau.trajectories));
    EXPECT_EQ(dense.stabilizerTrajectories, 0u);
    for (std::size_t k = 0; k < dense.means.size(); ++k)
        EXPECT_NEAR(dense.means[k], tableau.means[k], 1e-12)
            << "observable " << k;
}

TEST(BackendRouting, StabilizerEstimatesThreadCountInvariant)
{
    const Backend backend = makeFakeLinear(4, 1);
    SimulationEngine engine(backend, NoiseModel::pauliOnly());
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    const LayeredCircuit circuit = chainWorkload(4, 3);
    const auto obs = zObservables(4);

    const RunResult reference = engine.runEnsemble(
        circuit, pipeline, obs,
        ensembleOptions(SimBackendKind::Auto, /*threads=*/1));
    EXPECT_EQ(reference.stabilizerTrajectories,
              std::uint64_t(reference.trajectories));
    for (int threads : {2, 8}) {
        expectBitIdentical(
            engine.runEnsemble(
                circuit, pipeline, obs,
                ensembleOptions(SimBackendKind::Auto, threads)),
            reference, "threads=" + std::to_string(threads));
    }
}

TEST(BackendRouting, StandardNoiseFallsBackDenseBitIdentically)
{
    // The paper's standard model draws continuous Z angles, so Auto
    // must fall back -- and the fallback must not move a bit
    // relative to an explicit dense request.
    const Backend backend = makeFakeLinear(4, 1);
    SimulationEngine engine(backend, NoiseModel::standard());
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    const LayeredCircuit circuit = chainWorkload(4, 3);
    const auto obs = zObservables(4);

    const RunResult dense = engine.runEnsemble(
        circuit, pipeline, obs,
        ensembleOptions(SimBackendKind::Dense));
    const RunResult routed = engine.runEnsemble(
        circuit, pipeline, obs,
        ensembleOptions(SimBackendKind::Auto));
    EXPECT_EQ(routed.stabilizerTrajectories, 0u);
    expectBitIdentical(routed, dense, "auto-vs-dense");
}

TEST(BackendRouting, NonCliffordGateForcesDenseFallback)
{
    // A single mid-circuit T must push the whole variant dense even
    // under Clifford-compatible noise.
    LayeredCircuit circuit = chainWorkload(4, 2);
    Layer tail{LayerKind::OneQubit, {}};
    tail.insts.emplace_back(Op::T, std::vector<std::uint32_t>{2});
    circuit.addLayer(std::move(tail));

    const Backend backend = makeFakeLinear(4, 1);
    SimulationEngine engine(backend, NoiseModel::pauliOnly());
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    const auto obs = zObservables(4);

    const RunResult routed = engine.runEnsemble(
        circuit, pipeline, obs,
        ensembleOptions(SimBackendKind::Auto));
    EXPECT_EQ(routed.stabilizerTrajectories, 0u);
    const RunResult dense = engine.runEnsemble(
        circuit, pipeline, obs,
        ensembleOptions(SimBackendKind::Dense));
    expectBitIdentical(routed, dense, "t-gate fallback");
}

TEST(BackendRoutingDeath, ForcedStabilizerOnNonCliffordIsFatal)
{
    LayeredCircuit circuit = chainWorkload(4, 1);
    Layer tail{LayerKind::OneQubit, {}};
    tail.insts.emplace_back(Op::T, std::vector<std::uint32_t>{0});
    circuit.addLayer(std::move(tail));

    const Backend backend = makeFakeLinear(4, 1);
    SimulationEngine engine(backend, NoiseModel::pauliOnly());
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    const auto opts = ensembleOptions(SimBackendKind::Stabilizer);
    EXPECT_EXIT(engine.runEnsemble(circuit, pipeline,
                                   zObservables(4), opts),
                testing::ExitedWithCode(1), "not Clifford");

    // Standard noise blocks before any instruction is inspected.
    SimulationEngine noisy(backend, NoiseModel::standard());
    PassManager pipeline2 = buildPipeline(Strategy::CaDd);
    EXPECT_EXIT(noisy.runEnsemble(chainWorkload(4, 1), pipeline2,
                                  zObservables(4), opts),
                testing::ExitedWithCode(1), "not Clifford");
}

TEST(BackendRouting, ShardedStabilizerMergeMatchesSingleProcess)
{
    // runShard -> ShardResult through the wire format -> mergeShards
    // must be bit-identical to the one-process tableau run and
    // within 1e-12 of dense, and report the same RunStats, for shard
    // counts {1, 3}.
    const Backend backend = makeFakeLinear(4, 1);
    const LayeredCircuit circuit = chainWorkload(4, 3);
    const auto obs = zObservables(4);

    SimulationEngine engine(backend, NoiseModel::pauliOnly());
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    const RunResult reference = engine.runEnsemble(
        circuit, pipeline, obs,
        ensembleOptions(SimBackendKind::Auto));
    const RunResult dense = engine.runEnsemble(
        circuit, pipeline, obs,
        ensembleOptions(SimBackendKind::Dense));
    EXPECT_EQ(reference.stabilizerTrajectories,
              std::uint64_t(reference.trajectories));

    for (std::uint32_t shards : {1u, 3u}) {
        std::vector<ShardResult> results;
        for (std::uint32_t k = 0; k < shards; ++k) {
            const auto opts =
                ensembleOptions(SimBackendKind::Auto);
            SimulationEngine worker(backend,
                                    NoiseModel::pauliOnly());
            PassManager worker_pipeline =
                buildPipeline(Strategy::CaDd);
            ShardResult result;
            result.shardIndex = k;
            result.shardCount = shards;
            result.trajectories = opts.trajectories;
            result.observableCount = std::uint32_t(obs.size());
            result.jobFingerprint = 0xCAFE;
            result.seed = opts.seed;
            result.compileSeed = opts.compileSeed;
            result.run = worker.runShard(circuit, worker_pipeline,
                                         obs, opts, k, shards);
            results.push_back(ShardResult::decode(result.encode()));
        }
        const RunResult merged = mergeShards(results);
        expectBitIdentical(merged, reference,
                           "shards=" + std::to_string(shards));
        // The counters add up across shards to the single-process
        // ones (runEnsemble is the one-shard case).
        EXPECT_EQ(merged.stabilizerTrajectories,
                  reference.stabilizerTrajectories)
            << "shards=" << shards;
        EXPECT_EQ(merged.prefixStateHits, reference.prefixStateHits)
            << "shards=" << shards;
        for (std::size_t k = 0; k < merged.means.size(); ++k)
            EXPECT_NEAR(merged.means[k], dense.means[k], 1e-12)
                << "shards=" << shards << " observable " << k;
    }
}

TEST(BackendRouting, StabilizerScalesPastTheDenseLimit)
{
    // 50 qubits: a dense trajectory would need 2^50 amplitudes (and
    // the engine hard-stops at 24); the tableau runs it in
    // milliseconds.  Small budget -- this is a routing smoke test,
    // perf_backend measures throughput.
    const std::size_t qubits = 50;
    const Backend backend = makeFakeLinear(qubits, 1);
    SimulationEngine engine(backend, NoiseModel::pauliOnly());
    PassManager pipeline = buildPipeline(Strategy::CaDd);

    EnsembleRunOptions opts;
    opts.instances = 2;
    opts.compileSeed = 5;
    opts.trajectories = 6;
    opts.seed = 99;
    opts.backend = SimBackendKind::Auto;
    const RunResult result = engine.runEnsemble(
        chainWorkload(qubits, 2), pipeline, zObservables(qubits),
        opts);
    EXPECT_EQ(result.stabilizerTrajectories,
              std::uint64_t(result.trajectories));
    ASSERT_EQ(result.means.size(), qubits);
    for (double mean : result.means) {
        EXPECT_GE(mean, -1.0 - 1e-12);
        EXPECT_LE(mean, 1.0 + 1e-12);
    }
}

// ------------------------------------------ shard-spec format v2

TEST(ShardSpecV2, BackendAndNoiseFieldsRoundTrip)
{
    ShardSpec spec;
    spec.logical = chainWorkload(3, 1);
    spec.observables = zObservables(3);
    spec.backendQubits = 3;
    spec.simBackend = SimBackendKind::Auto;
    spec.noise = NoiseModel::pauliOnly();
    spec.noise.extras.push_back(
        ExtraNoiseSpec{ExtraNoiseKind::PhaseDrift, 0.002, 0.0});
    const ShardSpec decoded = ShardSpec::decode(spec.encode());
    EXPECT_EQ(decoded.simBackend, SimBackendKind::Auto);
    EXPECT_EQ(decoded.noise, spec.noise);
    EXPECT_EQ(decoded.runOptions().backend, SimBackendKind::Auto);
}

TEST(ShardSpecV2, CorruptSelectorsAreDiagnosed)
{
    ShardSpec spec;
    spec.logical = chainWorkload(3, 1);
    spec.observables = zObservables(3);
    spec.backendQubits = 3;
    auto bytes = spec.encode();
    // Fixed v4 tail (little-endian): u8 simBackend | noise block
    // (u32 flags, f64 coherentScale, u32 extra count) |
    // u8 prefixState.
    bytes[bytes.size() - 1] = 0x77; // out-of-range prefix mode
    EXPECT_THROW(ShardSpec::decode(bytes), SerializeError);
    bytes[bytes.size() - 1] = 0;
    bytes[bytes.size() - 2] = 0x77; // implausible extra count
    EXPECT_THROW(ShardSpec::decode(bytes), SerializeError);
    bytes[bytes.size() - 2] = 0;
    bytes[bytes.size() - 14] = 0x77; // unknown mechanism flag bits
    EXPECT_THROW(ShardSpec::decode(bytes), SerializeError);
}

TEST(ShardSpecV2, RecipeNamesRoundTrip)
{
    for (const char *recipe :
         {"standard", "pauli", "ideal", "coherent"}) {
        EXPECT_EQ(noiseModelRecipe(noiseModelFromRecipe(recipe)),
                  recipe);
    }
    EXPECT_THROW(noiseModelFromRecipe("loud"), SerializeError);
}

TEST(ShardSpecV2, ExecuteShardHonoursNoiseAndBackend)
{
    // A pauli-noise stabilizer shard must execute (standard noise
    // would make a forced tableau fatal) and merge to the same bits
    // as the equivalent single-process run.
    ShardSpec spec;
    spec.logical = chainWorkload(4, 2);
    spec.observables = zObservables(4);
    spec.backendQubits = 4;
    spec.instances = 3;
    spec.compileSeed = 21;
    spec.trajectories = 17;
    spec.seed = 5;
    spec.simBackend = SimBackendKind::Stabilizer;
    spec.noise = NoiseModel::pauliOnly();

    const ShardResult result =
        executeShard(ShardSpec::decode(spec.encode()));
    const RunResult merged = mergeShards({result});

    const Backend device = spec.makeBackend(); // engine borrows it
    SimulationEngine engine(device, spec.makeNoise());
    PassManager pipeline = spec.makePipeline();
    const RunResult reference = engine.runEnsemble(
        spec.logical, pipeline, spec.observables,
        spec.runOptions());
    expectBitIdentical(merged, reference, "pauli-stabilizer shard");
}

} // namespace
} // namespace casq
