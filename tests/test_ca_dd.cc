#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_common.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "passes/ca_dd.hh"
#include "passes/pipeline.hh"
#include "passes/walsh.hh"

namespace casq {
namespace {

Backend
testBackend(std::size_t n)
{
    Backend backend("test", makeLinear(n));
    for (const auto &edge : backend.coupling().edges())
        backend.pair(edge.a, edge.b).zzRateMHz = 0.06;
    return backend;
}

TEST(CaDd, CollectsAdjacentOverlappingWindows)
{
    Backend backend = testBackend(3);
    Circuit qc(3, 0);
    qc.delay(0, 2000).delay(1, 2000).sx(2);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    // Qubits 0 and 1 overlap and are coupled: one group of two
    // members; qubit 2's idle tail is its own group.
    bool found_joint = false;
    for (const auto &g : groups)
        if (g.members.size() >= 2)
            found_joint = true;
    EXPECT_TRUE(found_joint);
}

TEST(CaDd, ShortWindowsIgnored)
{
    Backend backend = testBackend(2);
    Circuit qc(2, 0);
    qc.sx(0).delay(0, 100).sx(0).sx(1).delay(1, 100).sx(1);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    EXPECT_TRUE(groups.empty());
}

TEST(CaDd, ColorGroupPinsActiveGates)
{
    Backend backend = testBackend(4);
    // Qubit 0 idles while ECR(1 -> 2) runs; 3 idles next to the
    // target.
    Circuit qc(4, 0);
    qc.barrier();
    qc.ecr(1, 2);
    qc.delay(0, 500).delay(3, 500);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    ASSERT_FALSE(groups.empty());
    for (const auto &group : groups) {
        const ColoredGroup colored = colorGroup(
            group, sched, backend.crosstalkGraph(), 15);
        for (const auto &member : group.members) {
            const int color = colored.colors.at(member.qubit);
            if (member.qubit == 0) {
                // Control spectator: must differ from the echo
                // row of its neighbouring control.
                EXPECT_NE(color, kControlColor);
                EXPECT_EQ(colored.pinned.at(1), kControlColor);
            }
            if (member.qubit == 3) {
                EXPECT_NE(color, kTargetColor);
                EXPECT_EQ(colored.pinned.at(2), kTargetColor);
            }
        }
    }
}

/** True if some group spans exactly [start, end] with n members. */
bool
hasGroup(const std::vector<JointDelayGroup> &groups, double start,
         double end, std::size_t members)
{
    for (const auto &g : groups) {
        if (std::abs(g.start - start) < 1e-9 &&
            std::abs(g.end - end) < 1e-9 &&
            g.members.size() == members) {
            return true;
        }
    }
    return false;
}

TEST(CaDd, ResidualOfExactlyMinDurationBeforeSpanIsKept)
{
    // Regression for the recursive split's boundary handling: a
    // residual piece left *before* the chosen joint span whose
    // length equals min_duration exactly must still be decoupled
    // (>= Dmin, like every other window in the pass), not silently
    // dropped by a strict comparison.
    Backend backend = testBackend(4);
    ScheduledCircuit sched(4, 0);
    // Qubits 0-2 idle over [200, 500]; qubit 3 idles [350, 1000]
    // and wins the joint-span selection (longest of a full-overlap
    // tie), leaving [200, 350] -- exactly min_duration -- before
    // the span on qubits 0-2.
    for (std::uint32_t q = 0; q < 3; ++q) {
        sched.add(TimedInstruction{Instruction(Op::X, {q}), 0.0,
                                   200.0});
        sched.add(TimedInstruction{Instruction(Op::X, {q}), 500.0,
                                   500.0});
    }
    sched.add(TimedInstruction{Instruction(Op::X, {3}), 0.0,
                               350.0});
    sched.sortByStart();

    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    EXPECT_TRUE(hasGroup(groups, 350.0, 1000.0, 4u));
    EXPECT_TRUE(hasGroup(groups, 200.0, 350.0, 3u));
}

TEST(CaDd, ResidualOfExactlyMinDurationAfterSpanIsKept)
{
    // Mirror case: the exact-boundary residual falls *after* the
    // joint span.
    Backend backend = testBackend(4);
    ScheduledCircuit sched(4, 0);
    // Qubits 0-2 idle over [500, 800]; qubit 3 idles [0, 650] and
    // wins the span, leaving [650, 800] -- exactly min_duration --
    // after it on qubits 0-2.
    for (std::uint32_t q = 0; q < 3; ++q) {
        sched.add(TimedInstruction{Instruction(Op::X, {q}), 0.0,
                                   500.0});
        sched.add(TimedInstruction{Instruction(Op::X, {q}), 800.0,
                                   200.0});
    }
    sched.add(TimedInstruction{Instruction(Op::X, {3}), 650.0,
                               350.0});
    sched.sortByStart();

    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    EXPECT_TRUE(hasGroup(groups, 0.0, 650.0, 4u));
    EXPECT_TRUE(hasGroup(groups, 650.0, 800.0, 3u));
}

TEST(CaDd, AppliesPulsesWithoutOverlap)
{
    Backend backend = testBackend(4);
    Circuit qc(4, 0);
    qc.h(0).h(1).h(2).h(3).barrier();
    qc.ecr(1, 2);
    qc.delay(0, 500).delay(3, 500);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const ScheduledCircuit dressed = applyCaDd(sched, backend);
    EXPECT_EQ(dressed.findOverlap(), -1);

    std::size_t dd_pulses = 0;
    for (const auto &t : dressed.instructions())
        if (t.inst.tag == InstTag::DD)
            ++dd_pulses;
    EXPECT_GE(dd_pulses, 4u); // two spectators, >= 2 pulses each
    // Pulse count per qubit is even (frame restored).
    std::map<std::uint32_t, int> per_qubit;
    for (const auto &t : dressed.instructions())
        if (t.inst.tag == InstTag::DD)
            ++per_qubit[t.inst.qubits[0]];
    for (const auto &[q, count] : per_qubit)
        EXPECT_EQ(count % 2, 0) << "qubit " << q;
}

TEST(CaDd, AdjacentIdleQubitsGetStaggeredRows)
{
    Backend backend = testBackend(2);
    Circuit qc(2, 0);
    qc.delay(0, 2000).delay(1, 2000);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    ASSERT_EQ(groups.size(), 1u);
    const ColoredGroup colored = colorGroup(
        groups[0], sched, backend.crosstalkGraph(), 15);
    EXPECT_NE(colored.colors.at(0), colored.colors.at(1));
}

TEST(CaDd, NoIdleQubitsNoPulses)
{
    Backend backend = testBackend(2);
    Circuit qc(2, 0);
    qc.ecr(0, 1);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const ScheduledCircuit dressed = applyCaDd(sched, backend);
    EXPECT_EQ(dressed.instructions().size(),
              sched.instructions().size());
}

TEST(CaDd, UniformDdStyles)
{
    Backend backend = testBackend(2);
    Circuit qc(2, 0);
    qc.delay(0, 2000).delay(1, 2000);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());

    const ScheduledCircuit aligned = applyUniformDd(
        sched, backend.durations(), UniformDdStyle::Aligned);
    std::map<std::uint32_t, std::vector<double>> starts;
    for (const auto &t : aligned.instructions())
        if (t.inst.tag == InstTag::DD)
            starts[t.inst.qubits[0]].push_back(t.start);
    ASSERT_EQ(starts[0].size(), 2u);
    ASSERT_EQ(starts[1].size(), 2u);
    // Aligned: identical pulse times on both qubits.
    EXPECT_NEAR(starts[0][0], starts[1][0], 1e-9);

    const ScheduledCircuit staggered =
        applyUniformDd(sched, backend.durations(),
                       UniformDdStyle::StaggeredByParity);
    starts.clear();
    for (const auto &t : staggered.instructions())
        if (t.inst.tag == InstTag::DD)
            starts[t.inst.qubits[0]].push_back(t.start);
    EXPECT_GT(std::abs(starts[0][0] - starts[1][0]), 100.0);
}

TEST(CaDd, NnnEdgeForcesThirdColor)
{
    Backend backend = testBackend(3);
    backend.addNnnPair(0, 2, 0.01);
    Circuit qc(3, 0);
    qc.delay(0, 4000).delay(1, 4000).delay(2, 4000);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const auto groups = collectJointDelays(
        sched, backend.crosstalkGraph(), 150.0);
    ASSERT_EQ(groups.size(), 1u);
    const ColoredGroup colored = colorGroup(
        groups[0], sched, backend.crosstalkGraph(), 15);
    std::set<int> distinct;
    for (const auto &[q, c] : colored.colors)
        distinct.insert(c);
    EXPECT_EQ(distinct.size(), 3u);
}

/** 64-bit FNV-1a fingerprint of a schedule's text dump. */
std::uint64_t
scheduleHash(const ScheduledCircuit &sched)
{
    const std::string text = sched.toString();
    return fingerprintBytes(
        reinterpret_cast<const std::uint8_t *>(text.data()),
        text.size());
}

std::string
hex(std::uint64_t value)
{
    char buffer[24];
    std::snprintf(buffer, sizeof buffer, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

bool
sortedByStart(const ScheduledCircuit &sched)
{
    return std::is_sorted(sched.instructions().begin(),
                          sched.instructions().end(),
                          [](const TimedInstruction &a,
                             const TimedInstruction &b) {
                              return a.start < b.start;
                          });
}

/** A DD pass or strategy output pinned by its fingerprint. */
struct SchedulePin
{
    const char *name;
    std::size_t qubits;
    std::vector<std::uint64_t> prints;
};

// Fingerprints of the DD outputs on the idle-heavy chain (depth 16,
// fake linear device seed 7).  They pin the exact bytes the DD
// passes produce: any change to pulse placement, colouring or
// instruction order moves them.
const std::vector<SchedulePin> kPassPins = {
    {"ca-dd", 8, {0xb2866a73fc360e2full}},
    {"ca-dd", 32, {0x712167fb59d64958ull}},
    {"dd-aligned", 8, {0x12aa803d288b0863ull}},
    {"dd-aligned", 32, {0xbdf5a7a557307159ull}},
    {"dd-staggered", 8, {0x95c03ff4d8ef9c23ull}},
    {"dd-staggered", 32, {0xde2a367df0e4c7e9ull}},
};

const std::vector<SchedulePin> kEnsemblePins = {
    {"ca-dd", 8,
     {0x9e346ed47d6835d7ull, 0x0dd5b862bda6d512ull}},
    {"ca-dd", 32,
     {0x24816443ca870f5eull, 0xf0a5c578849d7074ull}},
    {"dd-aligned", 8,
     {0x094d0d4a939e8db8ull, 0x8a7e5b35a4f4aafeull}},
    {"dd-aligned", 32,
     {0x69060b2581983d60ull, 0xba748673b652b076ull}},
    {"dd-staggered", 8,
     {0x36d4be9d332d2dd4ull, 0x2e22ef7f549de362ull}},
    {"dd-staggered", 32,
     {0x899a4e3259bfe258ull, 0x8e584f826874cf56ull}},
    {"ca-ec+dd", 8,
     {0x9e346ed47d6835d7ull, 0x0dd5b862bda6d512ull}},
    {"ca-ec+dd", 32,
     {0x24816443ca870f5eull, 0xf0a5c578849d7074ull}},
};

TEST(CaDd, PassOutputsMatchPinnedFingerprints)
{
    for (const SchedulePin &pin : kPassPins) {
        SCOPED_TRACE(std::string(pin.name) + " at " +
                     std::to_string(pin.qubits) + " qubits");
        const Backend backend = makeFakeLinear(pin.qubits, 7);
        const ScheduledCircuit sched = scheduleASAP(
            bench::syntheticChainWorkload(pin.qubits, 16,
                                          /*idle_layers=*/true)
                .flatten(),
            backend.durations());
        const std::string name = pin.name;
        const ScheduledCircuit dressed =
            name == "ca-dd"
                ? applyCaDd(sched, backend)
                : applyUniformDd(
                      sched, backend.durations(),
                      name == "dd-aligned"
                          ? UniformDdStyle::Aligned
                          : UniformDdStyle::StaggeredByParity);
        EXPECT_TRUE(sortedByStart(dressed));
        EXPECT_EQ(dressed.findOverlap(), -1);
        EXPECT_GT(dressed.instructions().size(),
                  sched.instructions().size());
        EXPECT_EQ(hex(scheduleHash(dressed)), hex(pin.prints[0]));
    }
}

TEST(CaDd, StrategyEnsemblesMatchPinnedFingerprints)
{
    for (const SchedulePin &pin : kEnsemblePins) {
        SCOPED_TRACE(std::string(pin.name) + " at " +
                     std::to_string(pin.qubits) + " qubits");
        const Backend backend = makeFakeLinear(pin.qubits, 7);
        CompileOptions options;
        options.strategy = *strategyFromName(pin.name);
        const std::vector<ScheduledCircuit> instances =
            compileEnsemble(bench::syntheticChainWorkload(
                                pin.qubits, 16, /*idle_layers=*/true),
                            backend, options, 2, 2024);
        ASSERT_EQ(instances.size(), pin.prints.size());
        for (std::size_t k = 0; k < instances.size(); ++k) {
            EXPECT_EQ(instances[k].findOverlap(), -1);
            EXPECT_EQ(hex(scheduleHash(instances[k])),
                      hex(pin.prints[k]))
                << "instance " << k;
        }
    }
}

TEST(CaDd, UniformDdToleratesZeroLengthWindows)
{
    // With min_duration 0 every gap is a window, including the empty
    // one between back-to-back gates, whose grid bisection would
    // otherwise yield an inverted range.
    Backend backend = testBackend(2);
    Circuit qc(2, 0);
    qc.sx(0).sx(0).delay(1, 2000).sx(1);
    const ScheduledCircuit sched =
        scheduleASAP(qc, backend.durations());
    const ScheduledCircuit dressed =
        applyUniformDd(sched, backend.durations(),
                       UniformDdStyle::Aligned, 0.0);
    EXPECT_TRUE(sortedByStart(dressed));
    EXPECT_EQ(dressed.findOverlap(), -1);
    EXPECT_GT(dressed.instructions().size(),
              sched.instructions().size());
}

TEST(CaDd, RandomSchedulesStaySortedAndOverlapFree)
{
    // Random gate soups on a ring with next-nearest collisions and
    // per-pair gate lengths, down to min_duration 0 (empty windows).
    const double min_durations[] = {0.0, 35.0, 150.0};
    for (std::uint64_t seed = 0; seed < 24; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const std::size_t n = 4 + rng.uniformInt(6);
        Backend backend = makeFakeRing(n, seed);
        backend.addNnnPair(0, 2, 0.02);
        const auto &edges = backend.coupling().edges();
        backend.durations().setPairDuration(edges[0].a, edges[0].b,
                                            420.0);
        Circuit qc(n, 0);
        for (int g = 0; g < 12 * int(n); ++g) {
            const std::uint32_t q = std::uint32_t(rng.uniformInt(n));
            const double r = rng.uniform();
            if (r < 0.3) {
                const auto &e = edges[rng.uniformInt(edges.size())];
                qc.ecr(e.a, e.b);
            } else if (r < 0.6) {
                qc.sx(q);
            } else if (r < 0.9) {
                qc.delay(q, 10.0 * double(rng.uniformInt(120)));
            } else {
                qc.barrier();
            }
        }
        const ScheduledCircuit sched =
            scheduleASAP(qc, backend.durations());
        CaddOptions options;
        options.minDuration = min_durations[seed % 3];
        for (const ScheduledCircuit &dressed :
             {applyCaDd(sched, backend, options),
              applyUniformDd(sched, backend.durations(),
                             UniformDdStyle::StaggeredByParity,
                             options.minDuration)}) {
            EXPECT_TRUE(sortedByStart(dressed));
            EXPECT_EQ(dressed.findOverlap(), -1);
        }
    }
}

} // namespace
} // namespace casq
