/**
 * @file
 * The composable NoiseSource layer (sim/noise/): per-source physics
 * and RNG contracts, the sampled-channel correctness fixes (the
 * t2Ns <= 0 dephasing guard and the uncoupled-pair depolarizing
 * scaling), the two new sources (spatially correlated dephasing and
 * intra-circuit phase drift), eligibility delegation, composed-model
 * determinism across threads and shards, and the serialized noise
 * configuration (wire block, recipe strings, corruption rejection).
 */

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "circuit/stratify.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "passes/pipeline.hh"
#include "sim/backend.hh"
#include "sim/engine.hh"
#include "sim/noise/sources.hh"
#include "sim/shard.hh"

namespace casq {
namespace {

constexpr double kTwoPi = 6.28318530717958647692;

double
angleOf(double nu_mhz, double tau_ns)
{
    return kTwoPi * nu_mhz * tau_ns * 1e-3;
}

/** All mechanisms silenced so one source can be studied alone. */
Backend
cleanLinearBackend(std::size_t n)
{
    Backend backend("clean", makeLinear(n));
    for (std::uint32_t q = 0; q < n; ++q) {
        QubitProperties &p = backend.qubit(q);
        p.t1Ns = 1e15;
        p.t2Ns = 1e15;
        p.readoutError = 0.0;
        p.chargeParityMHz = 0.0;
        p.quasiStaticSigmaMHz = 0.0;
        p.gateError1q = 0.0;
    }
    for (const auto &edge : backend.coupling().edges()) {
        PairProperties &p = backend.pair(edge.a, edge.b);
        p.zzRateMHz = 0.0;
        p.starkShiftMHz = 0.0;
        p.gateError2q = 0.0;
    }
    return backend;
}

RunResult
runX(const Backend &backend, const NoiseModel &noise,
     const Circuit &qc, const std::vector<PauliString> &obs,
     int trajectories)
{
    SimulationEngine engine(backend, noise);
    ExecutionOptions opts;
    opts.trajectories = trajectories;
    return engine.run(scheduleASAP(qc, backend.durations()), obs,
                      opts);
}

// ------------------------------ satellite fix: t2Ns <= 0 guard

TEST(NoiseSources, ZeroT2DisablesDephasingJumps)
{
    // A backend entry with t2Ns = 0 means "dephasing disabled";
    // the unguarded rate 1/t2 used to overflow to +inf and saturate
    // the jump probability at 1/2 -- maximal noise from a field
    // meant to switch the channel off.
    Backend backend = cleanLinearBackend(1);
    backend.qubit(0).t2Ns = 0.0;
    const WhiteDephasingSource source(backend, true);
    EXPECT_EQ(source.jumpProbability(0, 5000.0), 0.0);
    EXPECT_EQ(source.jumpProbability(0, 0.0), 0.0);

    backend.qubit(0).t2Ns = -1.0;
    EXPECT_EQ(source.jumpProbability(0, 5000.0), 0.0);

    // End to end: the white-dephasing-only model on that backend is
    // an exact no-op -- a long idle reproduces the ideal run to
    // the bit.  (Pre-fix it scrambled <X> to ~0 via p = 1/2 jumps.)
    backend.qubit(0).t2Ns = 0.0;
    NoiseModel noise = NoiseModel::ideal();
    noise.whiteDephasing = true;
    Circuit qc(1, 0);
    qc.h(0).delay(0, 20e3);
    const std::vector<PauliString> obs = {
        PauliString::fromLabel("X")};
    const RunResult noisy = runX(backend, noise, qc, obs, 64);
    const RunResult ideal =
        runX(backend, NoiseModel::ideal(), qc, obs, 64);
    EXPECT_EQ(noisy.means[0], ideal.means[0]);
    EXPECT_GT(noisy.means[0], 0.999);
}

TEST(NoiseSources, DephasingRateSubtractsT1AndClamps)
{
    // With amplitude damping also active the jump rate is the
    // pure-dephasing remainder 1/T2 - 1/(2 T1); at the T1 limit
    // (T2 = 2 T1) the remainder clamps to zero instead of going
    // negative.
    Backend backend = cleanLinearBackend(1);
    backend.qubit(0).t1Ns = 50e3;
    backend.qubit(0).t2Ns = 100e3;
    const WhiteDephasingSource with_t1(backend, true);
    EXPECT_EQ(with_t1.jumpProbability(0, 3000.0), 0.0);

    const WhiteDephasingSource without_t1(backend, false);
    const double expected =
        0.5 * (1.0 - std::exp(-3000.0 / 100e3));
    EXPECT_DOUBLE_EQ(without_t1.jumpProbability(0, 3000.0),
                     expected);
}

// ------------------- satellite fix: uncoupled-pair depolarizing

TEST(NoiseSources, UncoupledPairDepolarizingScalesLikeCoupled)
{
    // 2q gates on pairs without a crosstalk edge fall back to the
    // default calibration entry; the fallback must receive the same
    // per-op scaling as registered pairs.  The old path hardcoded
    // p = 7e-3 and skipped both the Can x3 and the rzz
    // pulse-stretch scaling.
    Backend backend = cleanLinearBackend(3); // edges 0-1, 1-2
    ASSERT_FALSE(backend.hasPair(0, 2));
    const GateDepolarizingSource source(backend);
    const auto state = makeStateBackend(SimBackendKind::Dense, 3);

    // A zero-duration rzz pulse carries zero depolarizing error;
    // bernoulli(0) draws nothing, so the stream must be untouched.
    // (Pre-fix the fallback drew with p = 7e-3 regardless.)
    const Instruction rzz(Op::RZZ, {0, 2}, {0.3});
    Rng touched(99), fresh(99);
    source.onGate(*state, rzz, 0.0, touched);
    EXPECT_EQ(touched.normal(), fresh.normal());

    // And a registered pair with the default error rate must march
    // the RNG through the identical draw sequence as the fallback:
    // same p, same scaling, same stream.
    backend.pair(0, 1).gateError2q = PairProperties{}.gateError2q;
    const double duration = backend.durations().twoQubit * 0.25;
    Rng coupled(7), uncoupled(7);
    source.onGate(*state, Instruction(Op::RZZ, {0, 1}, {0.3}),
                  duration, coupled);
    source.onGate(*state, Instruction(Op::RZZ, {0, 2}, {0.3}),
                  duration, uncoupled);
    EXPECT_EQ(coupled.normal(), uncoupled.normal());
}

// --------------------------------- zero-rate extras are no-ops

TEST(NoiseSources, ZeroRateExtrasAreBitwiseNoOps)
{
    // corr with sigma = 0 and drift with rate = 0 must not draw,
    // not hook, and not perturb eligibility: composing them onto
    // any model reproduces that model bit for bit.
    const Backend backend = makeFakeLinear(4, 11);
    Circuit qc(4, 0);
    qc.h(0).h(1).h(2).h(3).ecr(0, 1).ecr(2, 3).delay(1, 400);
    const std::vector<PauliString> obs = {
        PauliString::fromLabel("XIII"),
        PauliString::fromLabel("IZZI")};

    NoiseModel composed = NoiseModel::standard();
    composed.extras.push_back(ExtraNoiseSpec{
        ExtraNoiseKind::CorrelatedDephasing, 0.0, 2.0});
    composed.extras.push_back(
        ExtraNoiseSpec{ExtraNoiseKind::PhaseDrift, 0.0, 0.0});

    const RunResult plain =
        runX(backend, NoiseModel::standard(), qc, obs, 48);
    const RunResult padded = runX(backend, composed, qc, obs, 48);
    ASSERT_EQ(plain.means.size(), padded.means.size());
    for (std::size_t k = 0; k < plain.means.size(); ++k) {
        EXPECT_EQ(plain.means[k], padded.means[k]) << "mean " << k;
        EXPECT_EQ(plain.stderrs[k], padded.stderrs[k])
            << "stderr " << k;
    }
}

// -------------------------------- correlated dephasing physics

TEST(NoiseSources, CorrelatedWeightsAreRowNormalized)
{
    const Backend backend = cleanLinearBackend(5);
    const CorrelatedDephasingSource source(backend, 0.02, 2.0);
    for (std::uint32_t q = 0; q < 5; ++q) {
        double sumsq = 0.0;
        for (std::uint32_t p = 0; p < 5; ++p)
            sumsq += source.weight(q, p) * source.weight(q, p);
        // L2 row normalization: every qubit sees detuning with
        // variance exactly sigma^2 regardless of xi.
        EXPECT_NEAR(sumsq, 1.0, 1e-12) << "row " << q;
    }
    // The kernel decays exponentially in graph distance...
    EXPECT_NEAR(source.weight(0, 1) / source.weight(0, 0),
                std::exp(-0.5), 1e-12);
    EXPECT_GT(source.weight(0, 1), source.weight(0, 2));

    // ...and xi = 0 recovers fully independent fluctuators.
    const CorrelatedDephasingSource local(backend, 0.02, 0.0);
    for (std::uint32_t q = 0; q < 5; ++q)
        for (std::uint32_t p = 0; p < 5; ++p)
            EXPECT_EQ(local.weight(q, p), q == p ? 1.0 : 0.0);
}

TEST(NoiseSources, CorrelatedDephasingSingleQubitGaussianDecay)
{
    // One qubit sees plain quasi-static Gaussian dephasing:
    // <X> = exp(-(2 pi sigma tau)^2 / 2).
    const Backend backend = cleanLinearBackend(1);
    NoiseModel noise = NoiseModel::ideal();
    noise.extras.push_back(ExtraNoiseSpec{
        ExtraNoiseKind::CorrelatedDephasing, 0.02, 2.0});

    const double tau = 6000.0;
    Circuit qc(1, 0);
    qc.h(0).delay(0, tau);
    const RunResult result =
        runX(backend, noise, qc, {PauliString::fromLabel("X")},
             6000);
    const double w = angleOf(0.02, tau);
    EXPECT_NEAR(result.means[0], std::exp(-w * w / 2.0), 0.02);
}

TEST(NoiseSources, CorrelationLengthCouplesNeighbours)
{
    // Two idle coupled qubits under one shared fluctuator
    // (xi >> 1): theta_0 = theta_1 = theta per shot, so
    // <XX> = E[cos^2 theta] = (1 + exp(-2 w^2)) / 2, measurably
    // above the independent-noise value exp(-w^2).
    const Backend backend = cleanLinearBackend(2);
    const double sigma = 0.02, tau = 6000.0;
    const double w = angleOf(sigma, tau);

    Circuit qc(2, 0);
    qc.h(0).h(1).delay(0, tau).delay(1, tau);
    const std::vector<PauliString> obs = {
        PauliString::fromLabel("XX")};

    NoiseModel shared = NoiseModel::ideal();
    shared.extras.push_back(ExtraNoiseSpec{
        ExtraNoiseKind::CorrelatedDephasing, sigma, 1000.0});
    const double correlated =
        runX(backend, shared, qc, obs, 6000).means[0];
    EXPECT_NEAR(correlated, (1.0 + std::exp(-2.0 * w * w)) / 2.0,
                0.02);

    NoiseModel independent = NoiseModel::ideal();
    independent.extras.push_back(ExtraNoiseSpec{
        ExtraNoiseKind::CorrelatedDephasing, sigma, 0.0});
    const double uncorrelated =
        runX(backend, independent, qc, obs, 6000).means[0];
    EXPECT_NEAR(uncorrelated, std::exp(-w * w), 0.02);
    EXPECT_GT(correlated, uncorrelated + 0.05);
}

// --------------------------------------- phase drift physics

TEST(NoiseSources, PhaseDriftRandomWalkDecay)
{
    // One idle segment of length tau: the walk takes a single
    // Wiener step rate * sqrt(tau), so the accumulated phase is
    // Gaussian with std c = 2 pi 1e-3 * rate * tau^(3/2) and
    // <X> = exp(-c^2 / 2).
    const Backend backend = cleanLinearBackend(1);
    const double rate = 0.001, tau = 2000.0;
    NoiseModel noise = NoiseModel::ideal();
    noise.extras.push_back(
        ExtraNoiseSpec{ExtraNoiseKind::PhaseDrift, rate, 0.0});

    Circuit qc(1, 0);
    qc.h(0).delay(0, tau);
    const RunResult result =
        runX(backend, noise, qc, {PauliString::fromLabel("X")},
             6000);
    const double c = angleOf(rate, tau) * std::sqrt(tau);
    EXPECT_NEAR(result.means[0], std::exp(-c * c / 2.0), 0.02);
}

TEST(NoiseSources, EchoRefocusesDriftOnlyPartially)
{
    // Quasi-static detuning echoes away exactly; a detuning that
    // keeps drifting *within* the circuit does not.  Hahn echo over
    // tau + tau: the first step cancels between the echo halves,
    // the second survives -- phase std c * rate * tau^(3/2) --
    // while the unechoed 2 tau idle accumulates (2 tau)^(3/2),
    // i.e. 8x the variance.  This is the regime that separates
    // context-aware strategies from mere static refocusing.
    Backend backend = cleanLinearBackend(1);
    backend.durations().oneQubit = 0.0;
    const double rate = 0.001, tau = 2000.0;
    NoiseModel drift = NoiseModel::ideal();
    drift.extras.push_back(
        ExtraNoiseSpec{ExtraNoiseKind::PhaseDrift, rate, 0.0});

    Circuit echoed(1, 0);
    echoed.h(0).delay(0, tau).x(0).delay(0, tau).x(0);
    Circuit unechoed(1, 0);
    unechoed.h(0).delay(0, 2.0 * tau);
    const std::vector<PauliString> obs = {
        PauliString::fromLabel("X")};

    const double c = angleOf(rate, tau) * std::sqrt(tau);
    const double echoed_x =
        runX(backend, drift, echoed, obs, 6000).means[0];
    const double unechoed_x =
        runX(backend, drift, unechoed, obs, 6000).means[0];
    EXPECT_NEAR(echoed_x, std::exp(-c * c / 2.0), 0.02);
    EXPECT_NEAR(unechoed_x, std::exp(-8.0 * c * c / 2.0), 0.03);
    EXPECT_GT(echoed_x, unechoed_x + 0.1);

    // Control: the same echo removes per-shot-constant correlated
    // dephasing exactly.
    NoiseModel quasi = NoiseModel::ideal();
    quasi.extras.push_back(ExtraNoiseSpec{
        ExtraNoiseKind::CorrelatedDephasing, 0.02, 2.0});
    EXPECT_NEAR(runX(backend, quasi, echoed, obs, 500).means[0],
                1.0, 1e-9);
}

// ------------------------------------ eligibility delegation

TEST(NoiseSources, EligibilityDelegatesToComposedSources)
{
    // Composition keeps the stabilizer fast path: the Pauli-only
    // built-ins ride the tableau, and a single non-Clifford extra
    // must block it again -- through the sources' own
    // cliffordBlocker() hooks, not engine special cases.
    const Backend backend = makeFakeLinear(4, 1);
    PassManager pipeline = buildPipeline(Strategy::CaDd);
    EnsembleRunOptions opts;
    opts.instances = 3;
    opts.compileSeed = 23;
    opts.trajectories = 19;
    opts.seed = 404;
    opts.backend = SimBackendKind::Auto;
    const LayeredCircuit circuit =
        bench::syntheticChainWorkload(4, 3, /*idle_layers=*/true);
    std::vector<PauliString> obs;
    for (std::uint32_t q = 0; q < 4; ++q)
        obs.push_back(PauliString::single(4, q, PauliOp::Z));

    SimulationEngine clifford(backend, NoiseModel::pauliOnly());
    const RunResult tableau =
        clifford.runEnsemble(circuit, pipeline, obs, opts);
    EXPECT_EQ(tableau.stabilizerTrajectories,
              std::uint64_t(tableau.trajectories));

    NoiseModel drifting = NoiseModel::pauliOnly();
    drifting.extras.push_back(
        ExtraNoiseSpec{ExtraNoiseKind::PhaseDrift, 0.001, 0.0});
    SimulationEngine dense(backend, drifting);
    const RunResult blocked =
        dense.runEnsemble(circuit, pipeline, obs, opts);
    EXPECT_EQ(blocked.stabilizerTrajectories, 0u);

    EXPECT_EQ(NoiseModel::pauliOnly().cliffordBlocker(backend), "");
    EXPECT_NE(drifting.cliffordBlocker(backend).find("drift"),
              std::string::npos);
}

// ------------------- composed-model cross-process determinism

TEST(NoiseSources, ComposedModelBitIdenticalAcrossShardsAndThreads)
{
    // The composed model must keep the sharding determinism
    // contract: any shard count, any thread count, one bit pattern.
    NoiseModel noise = NoiseModel::standard();
    noise.coherentScale = 0.75;
    noise.extras.push_back(ExtraNoiseSpec{
        ExtraNoiseKind::CorrelatedDephasing, 0.03, 2.0});
    noise.extras.push_back(
        ExtraNoiseSpec{ExtraNoiseKind::PhaseDrift, 0.002, 0.0});

    const auto merge = [&noise](std::uint32_t shards, int threads) {
        std::vector<ShardResult> results;
        for (std::uint32_t k = 0; k < shards; ++k) {
            ShardSpec spec;
            spec.shardIndex = k;
            spec.shardCount = shards;
            spec.logical = bench::syntheticChainWorkload(
                4, 3, /*idle_layers=*/true);
            for (std::uint32_t q = 0; q < 4; ++q) {
                spec.observables.push_back(
                    PauliString::single(4, q, PauliOp::Z));
            }
            spec.backendQubits = 4;
            spec.instances = 4;
            spec.compileSeed = 31;
            spec.trajectories = 42;
            spec.seed = 616;
            spec.noise = noise;
            // Round-trip the wire format on every shard.
            results.push_back(executeShard(
                ShardSpec::decode(spec.encode()), threads));
        }
        return mergeShards(results);
    };

    const RunResult reference = merge(1, 1);
    for (std::uint32_t shards : {1u, 3u}) {
        for (int threads : {1, 8}) {
            const RunResult probe = merge(shards, threads);
            ASSERT_EQ(probe.means.size(), reference.means.size());
            for (std::size_t k = 0; k < probe.means.size(); ++k) {
                EXPECT_EQ(probe.means[k], reference.means[k])
                    << "shards=" << shards
                    << " threads=" << threads << " obs " << k;
            }
        }
    }
}

// ------------------------------- serialized noise configuration

TEST(NoiseSources, WireBlockRoundTripsEveryField)
{
    NoiseModel model = NoiseModel::coherentOnly();
    model.coherentScale = 1.5;
    model.extras.push_back(ExtraNoiseSpec{
        ExtraNoiseKind::CorrelatedDephasing, 0.017, 3.0});
    model.extras.push_back(
        ExtraNoiseSpec{ExtraNoiseKind::PhaseDrift, 0.0025, 0.0});

    ByteWriter w;
    encodeNoiseModel(w, model);
    const std::vector<std::uint8_t> bytes = w.take();
    ByteReader r(bytes.data(), bytes.size());
    EXPECT_EQ(decodeNoiseModel(r), model);
}

TEST(NoiseSources, WireBlockRejectsCorruption)
{
    const auto encoded = [](const NoiseModel &model) {
        ByteWriter w;
        encodeNoiseModel(w, model);
        return w.take();
    };
    const auto decoded = [](std::vector<std::uint8_t> bytes) {
        ByteReader r(bytes.data(), bytes.size());
        return decodeNoiseModel(r);
    };

    // Unknown mechanism flag bits (a newer writer, or rot).
    {
        auto bytes = encoded(NoiseModel::standard());
        bytes[3] |= 0x80; // flags u32 is little-endian first
        EXPECT_THROW(decoded(bytes), SerializeError);
    }
    // Unknown extra kind.
    {
        NoiseModel model = NoiseModel::ideal();
        model.extras.push_back(
            ExtraNoiseSpec{ExtraNoiseKind::PhaseDrift, 0.001, 0.0});
        auto bytes = encoded(model);
        bytes[bytes.size() - 17] = 0xee; // the extra's kind byte
        EXPECT_THROW(decoded(bytes), SerializeError);
    }
    // Non-finite and negative scalars.
    {
        NoiseModel model = NoiseModel::standard();
        model.coherentScale =
            std::numeric_limits<double>::quiet_NaN();
        EXPECT_THROW(decoded(encoded(model)), SerializeError);
        model.coherentScale = -1.0;
        EXPECT_THROW(decoded(encoded(model)), SerializeError);
    }
    {
        NoiseModel model = NoiseModel::ideal();
        model.extras.push_back(ExtraNoiseSpec{
            ExtraNoiseKind::CorrelatedDephasing, -0.02, 2.0});
        EXPECT_THROW(decoded(encoded(model)), SerializeError);
    }
    // An implausible extra count.
    {
        NoiseModel model = NoiseModel::ideal();
        model.extras.resize(
            65, ExtraNoiseSpec{ExtraNoiseKind::PhaseDrift, 0.001,
                               0.0});
        EXPECT_THROW(decoded(encoded(model)), SerializeError);
    }
}

TEST(NoiseSources, RecipeStringsRoundTrip)
{
    for (const char *recipe :
         {"standard", "pauli", "ideal", "coherent", "standard:0.5",
          "coherent:2", "ideal+corr:0.02:2", "standard+drift:0.002",
          "standard:0.5+corr:0.03:1.5+drift:0.001"}) {
        const NoiseModel model = noiseModelFromRecipe(recipe);
        EXPECT_EQ(noiseModelFromRecipe(noiseModelRecipe(model)),
                  model)
            << recipe;
    }

    // Defaults: bare extras pick up the documented parameters.
    const NoiseModel corr = noiseModelFromRecipe("ideal+corr");
    ASSERT_EQ(corr.extras.size(), 1u);
    EXPECT_EQ(corr.extras[0].kind,
              ExtraNoiseKind::CorrelatedDephasing);
    EXPECT_EQ(corr.extras[0].param0, 0.02);
    EXPECT_EQ(corr.extras[0].param1, 2.0);
    const NoiseModel drift = noiseModelFromRecipe("ideal+drift");
    ASSERT_EQ(drift.extras.size(), 1u);
    EXPECT_EQ(drift.extras[0].kind, ExtraNoiseKind::PhaseDrift);
    EXPECT_EQ(drift.extras[0].param0, 0.001);

    // A toggle combination no base name matches renders as
    // "custom" (display only; the wire block is the transport).
    NoiseModel odd = NoiseModel::standard();
    odd.readoutError = false;
    EXPECT_EQ(noiseModelRecipe(odd), "custom");
}

TEST(NoiseSources, RecipeStringsRejectJunk)
{
    for (const char *recipe :
         {"", "loud", "standard:x", "standard:-1", "standard:0.5:2",
          "standard+bogus", "standard+corr:0.02:2:9",
          "standard+drift:0.001:7", "standard+corr:-0.02",
          "standard+drift:inf", "corr"}) {
        EXPECT_THROW(noiseModelFromRecipe(recipe), SerializeError)
            << "'" << recipe << "'";
    }
}

} // namespace
} // namespace casq
