/**
 * @file
 * Late twirling on the cached prefix (TwirlPlanPass +
 * LateTwirlPass): per-instance schedules byte-identical to
 * compileReference() -- the seed's twirl-first composition -- at
 * the same seed across thread counts, and prefix-cache engagement
 * for every stock strategy.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "passes/builtin.hh"
#include "passes/pipeline.hh"

namespace casq {
namespace {

Backend
testBackend()
{
    return makeFakeLinear(5, 7);
}

/**
 * Every scheduling path late twirling must reproduce: parallel ECR
 * and mixed rzz/can two-qubit layers (non-integer rzz duration),
 * idle and sx one-qubit layers, and a measure -> feedforward
 * dynamic tail followed by one more twirled layer so the
 * conditional-latency timing sits *between* twirl insertions.
 */
LayeredCircuit
workload()
{
    LayeredCircuit circuit(5, 1);

    Layer ecr{LayerKind::TwoQubit, {}};
    ecr.insts.emplace_back(Op::ECR,
                           std::vector<std::uint32_t>{0, 1});
    ecr.insts.emplace_back(Op::ECR,
                           std::vector<std::uint32_t>{2, 3});
    circuit.addLayer(std::move(ecr));

    Layer idle{LayerKind::OneQubit, {}};
    for (std::uint32_t q = 0; q < 5; ++q)
        idle.insts.emplace_back(Op::Delay,
                                std::vector<std::uint32_t>{q},
                                std::vector<double>{600.0});
    circuit.addLayer(std::move(idle));

    Layer mixed{LayerKind::TwoQubit, {}};
    mixed.insts.emplace_back(Op::RZZ,
                             std::vector<std::uint32_t>{1, 2},
                             std::vector<double>{0.37});
    mixed.insts.emplace_back(
        Op::Can, std::vector<std::uint32_t>{3, 4},
        std::vector<double>{0.3, 0.2, 0.1});
    circuit.addLayer(std::move(mixed));

    Layer ones{LayerKind::OneQubit, {}};
    for (std::uint32_t q = 0; q < 5; ++q)
        ones.insts.emplace_back(Op::SX,
                                std::vector<std::uint32_t>{q});
    circuit.addLayer(std::move(ones));

    Layer measure{LayerKind::Dynamic, {}};
    Instruction m(Op::Measure, {0});
    m.cbit = 0;
    measure.insts.push_back(m);
    circuit.addLayer(std::move(measure));

    Layer feedforward{LayerKind::Dynamic, {}};
    Instruction fx(Op::X, {2});
    fx.condBit = 0;
    fx.condValue = 1;
    feedforward.insts.push_back(fx);
    circuit.addLayer(std::move(feedforward));

    Layer tail{LayerKind::TwoQubit, {}};
    tail.insts.emplace_back(Op::ECR,
                            std::vector<std::uint32_t>{1, 2});
    circuit.addLayer(std::move(tail));

    return circuit;
}

/** Exact (bitwise) schedule equality, stricter than toString(). */
void
expectSameSchedule(const ScheduledCircuit &a,
                   const ScheduledCircuit &b,
                   const std::string &what)
{
    ASSERT_EQ(a.numQubits(), b.numQubits()) << what;
    ASSERT_EQ(a.numClbits(), b.numClbits()) << what;
    ASSERT_EQ(a.instructions().size(), b.instructions().size())
        << what << "\n"
        << a.toString() << "\nvs\n"
        << b.toString();
    for (std::size_t i = 0; i < a.instructions().size(); ++i) {
        const TimedInstruction &ta = a.instructions()[i];
        const TimedInstruction &tb = b.instructions()[i];
        ASSERT_TRUE(ta.start == tb.start &&
                    ta.duration == tb.duration &&
                    ta.inst.op == tb.inst.op &&
                    ta.inst.qubits == tb.inst.qubits &&
                    ta.inst.params == tb.inst.params &&
                    ta.inst.cbit == tb.inst.cbit &&
                    ta.inst.condBit == tb.inst.condBit &&
                    ta.inst.condValue == tb.inst.condValue &&
                    ta.inst.tag == tb.inst.tag)
            << what << ": instruction " << i << "\n  "
            << ta.inst.toString() << " @ [" << ta.start << ", "
            << ta.end() << ")\nvs\n  " << tb.inst.toString()
            << " @ [" << tb.start << ", " << tb.end() << ")";
    }
}

EnsembleResult
runStrategy(const CompileOptions &options,
            const LayeredCircuit &circuit, const Backend &backend,
            int instances, std::uint64_t seed, unsigned threads)
{
    PassManager pipeline = buildPipeline(options);
    EnsembleOptions ensemble;
    ensemble.instances = instances;
    ensemble.seed = seed;
    ensemble.threads = threads;
    return pipeline.runEnsemble(circuit, backend, ensemble);
}

/**
 * The stock pipeline's ensemble on {1, 8} threads must equal
 * compileReference() instance by instance, instance k seeded
 * (seed, k + 7001) exactly as PassManager::runEnsemble() seeds it.
 */
void
expectMatchesReference(const CompileOptions &options,
                       const LayeredCircuit &circuit,
                       const Backend &backend, int instances,
                       std::uint64_t seed, const std::string &what)
{
    std::vector<ScheduledCircuit> reference;
    const Rng master(seed);
    for (int k = 0; k < instances; ++k) {
        Rng rng = master.derive(std::uint64_t(k) + 7001);
        reference.push_back(
            compileReference(circuit, backend, options, rng));
    }
    for (unsigned threads : {1u, 8u}) {
        const EnsembleResult result = runStrategy(
            options, circuit, backend, instances, seed, threads);
        ASSERT_EQ(result.instances.size(), reference.size()) << what;
        for (std::size_t k = 0; k < reference.size(); ++k)
            expectSameSchedule(result.instances[k].scheduled,
                               reference[k],
                               what + " instance " +
                                   std::to_string(k) + " threads " +
                                   std::to_string(threads));
    }
}

TEST(LateTwirl, ByteIdenticalToTwirlFirstForEveryStockStrategy)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();
    for (Strategy strategy : allStrategies()) {
        CompileOptions options;
        options.strategy = strategy;
        expectMatchesReference(options, circuit, backend, 6, 2024,
                               strategyName(strategy));
    }
}

TEST(LateTwirl, ByteIdenticalToTwirlFirstLoweredToNative)
{
    // With --native the frame gates themselves get transpiled
    // (Y -> rz x, Z -> rz) and the canonical block expands into a
    // multi-gate fragment; the blueprint keeps the original gate
    // identities so the conjugation tables still match.
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();
    for (Strategy strategy : allStrategies()) {
        CompileOptions options;
        options.strategy = strategy;
        options.lowerToNative = true;
        expectMatchesReference(options, circuit, backend, 4, 99,
                               strategyName(strategy) + " native");
    }
}

TEST(LateTwirl, EveryStockStrategyEngagesThePrefixCache)
{
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();
    const int instances = 5;

    for (Strategy strategy : allStrategies()) {
        CompileOptions options;
        options.strategy = strategy;
        PassManager pipeline = buildPipeline(options);

        // Every strategy shares the full lowering front end; the
        // CA-EC strategies additionally capture their scheduled
        // walk's blueprint in the prefix.
        const bool caec = strategy == Strategy::Ec ||
                          strategy == Strategy::EcAlignedDd ||
                          strategy == Strategy::Combined;
        EXPECT_EQ(pipeline.stochasticPrefixLength(), caec ? 3u : 2u)
            << strategyName(strategy);

        for (unsigned threads : {1u, 8u}) {
            EnsembleOptions ensemble;
            ensemble.instances = instances;
            ensemble.seed = 11;
            ensemble.threads = threads;
            const EnsembleResult result =
                pipeline.runEnsemble(circuit, backend, ensemble);
            EXPECT_GT(result.prefixLength, 0u)
                << strategyName(strategy);
            EXPECT_EQ(result.prefixHits, std::size_t(instances))
                << strategyName(strategy) << " threads "
                << threads;
        }
    }
}

TEST(LateTwirl, InstancesStayIndependentlyTwirled)
{
    // The shared prefix must not correlate the ensemble: late
    // twirled instances still differ from each other.
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();
    const EnsembleResult result = runStrategy(
        CompileOptions{}, circuit, backend, 6, 13, 1);
    bool any_difference = false;
    for (std::size_t k = 1; k < result.instances.size(); ++k)
        any_difference |=
            result.instances[k].scheduled.toString() !=
            result.instances[0].scheduled.toString();
    EXPECT_TRUE(any_difference);
}

TEST(LateTwirl, PlanCapturesTwoQubitGatesInSamplingOrder)
{
    const LayeredCircuit circuit = workload();
    const TwirlPlan plan = makeTwirlPlan(circuit);
    ASSERT_EQ(plan.targets.size(), 3u);
    EXPECT_EQ(plan.innerBarriers,
              std::vector<std::size_t>(circuit.layers().size(), 0));
    EXPECT_EQ(plan.gateCount(), circuit.countTwoQubitGates());
    EXPECT_EQ(plan.targets[0].layer, 0u);
    ASSERT_EQ(plan.targets[1].gates.size(), 2u);
    EXPECT_EQ(plan.targets[1].gates[0].op, Op::RZZ);
    EXPECT_EQ(plan.targets[1].gates[1].op, Op::Can);
    EXPECT_EQ(plan.targets[2].layer, 6u);
}

/**
 * workload() with barriers inside layers.  Partial: a {4} barrier
 * beside the first ECR layer's gates and a {2,3} barrier beside an
 * sx.  Full-width: a layer holding only an all-qubit barrier, once
 * mid-circuit and once as the last layer.  Only full-width barriers
 * look like the layer boundaries flatten() emits.
 */
LayeredCircuit
barrierWorkload(bool full_width)
{
    const LayeredCircuit base = workload();
    LayeredCircuit circuit(base.numQubits(), base.numClbits());
    const auto barrier_layer = [&](std::vector<std::uint32_t> qubits) {
        Layer layer{LayerKind::OneQubit, {}};
        layer.insts.emplace_back(Op::Barrier, std::move(qubits));
        return layer;
    };
    for (std::size_t li = 0; li < base.layers().size(); ++li) {
        Layer layer = base.layers()[li];
        if (li == 0 && !full_width)
            layer.insts.emplace_back(Op::Barrier,
                                     std::vector<std::uint32_t>{4});
        circuit.addLayer(std::move(layer));
        if (li != 1)
            continue;
        if (full_width) {
            circuit.addLayer(barrier_layer({0, 1, 2, 3, 4}));
        } else {
            Layer mixed = barrier_layer({2, 3});
            mixed.insts.emplace_back(Op::SX,
                                     std::vector<std::uint32_t>{0});
            circuit.addLayer(std::move(mixed));
        }
    }
    if (full_width)
        circuit.addLayer(barrier_layer({0, 1, 2, 3, 4}));
    return circuit;
}

TEST(LateTwirl, BarrierInsideALayerMatchesReference)
{
    // Segment recovery splits only on full-width barriers, and the
    // plans count the ones a layer holds itself, so both kinds of
    // in-layer barrier compile under the stock pipeline -- late
    // twirl and the scheduled CA-EC walk alike -- byte-identical to
    // the reference composition.
    const Backend backend = testBackend();
    for (bool full_width : {false, true}) {
        const LayeredCircuit circuit = barrierWorkload(full_width);
        const std::vector<std::size_t> inner =
            makeTwirlPlan(circuit).innerBarriers;
        EXPECT_EQ(std::count(inner.begin(), inner.end(), 1u),
                  full_width ? 2 : 0);
        for (Strategy strategy :
             {Strategy::None, Strategy::CaDd, Strategy::Ec,
              Strategy::Combined}) {
            for (bool native : {false, true}) {
                CompileOptions options;
                options.strategy = strategy;
                options.lowerToNative = native;
                expectMatchesReference(
                    options, circuit, backend, 4, 31,
                    strategyName(strategy) +
                        (full_width ? " full-width" : " partial") +
                        (native ? " native" : ""));
            }
        }
    }
}

TEST(LateTwirl, LateTwirlPassCountsFramesLikeTwirlFirst)
{
    // kTwirlGatesKey is the pre-lowering frame count: exactly the
    // Twirl-tagged gates pauliTwirl() inserts at the same rng, with
    // or without native lowering.
    const Backend backend = testBackend();
    const LayeredCircuit circuit = workload();

    Rng twirl_rng(5);
    const LayeredCircuit twirled = pauliTwirl(circuit, twirl_rng);
    std::size_t expected = 0;
    for (const Layer &layer : twirled.layers())
        for (const Instruction &inst : layer.insts)
            expected += inst.tag == InstTag::Twirl;
    EXPECT_GT(expected, 0u);

    for (bool native : {false, true}) {
        CompileOptions options;
        options.lowerToNative = native;
        PassManager pipeline = buildPipeline(options);
        Rng rng(5);
        const CompilationResult result =
            pipeline.compile(circuit, backend, rng);
        const auto *gates =
            result.property<std::size_t>(kTwirlGatesKey);
        ASSERT_NE(gates, nullptr);
        EXPECT_EQ(*gates, expected) << "native=" << native;
    }
}

} // namespace
} // namespace casq
