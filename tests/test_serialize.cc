/**
 * @file
 * Binary serialization: primitive round-trips, canonical re-encode
 * byte-equality over randomized shard specs, and the failure
 * contract -- corrupted, truncated, or version-skewed payloads must
 * raise SerializeError with a diagnostic instead of crashing (the
 * sweeps below run under the ASan/UBSan CI legs, which turn any
 * out-of-bounds decode into a hard failure).
 */

#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "mutation.hh"
#include "passes/pipeline.hh"
#include "sim/shard.hh"

namespace casq {
namespace {

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

TEST(Serialize, PrimitiveRoundTrip)
{
    ByteWriter w;
    w.u8(0xAB);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i32(-42);
    w.boolean(true);
    w.boolean(false);
    w.f64(-0.125);
    w.str("casq");
    w.str("");

    ByteReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i32(), -42);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.f64(), -0.125);
    EXPECT_EQ(r.str(), "casq");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.atEnd());
    EXPECT_NO_THROW(r.requireEnd());
}

TEST(Serialize, EncodingIsLittleEndianByteStable)
{
    // The on-wire bytes are pinned, not just round-trippable:
    // payloads must mean the same thing on every host.
    ByteWriter w;
    w.u32(0x11223344u);
    ASSERT_EQ(w.size(), 4u);
    EXPECT_EQ(w.bytes()[0], 0x44);
    EXPECT_EQ(w.bytes()[1], 0x33);
    EXPECT_EQ(w.bytes()[2], 0x22);
    EXPECT_EQ(w.bytes()[3], 0x11);
}

TEST(Serialize, DoubleSpecialValuesRoundTripBitExactly)
{
    const double values[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::max(),
    };
    ByteWriter w;
    for (double v : values)
        w.f64(v);
    ByteReader r(w.bytes());
    for (double v : values)
        EXPECT_EQ(bitsOf(r.f64()), bitsOf(v));
}

TEST(Serialize, TruncatedPrimitiveReadsThrow)
{
    ByteWriter w;
    w.u32(7);
    for (std::size_t cut = 0; cut < w.size(); ++cut) {
        ByteReader r(w.bytes().data(), cut);
        EXPECT_THROW(r.u32(), SerializeError) << "cut=" << cut;
    }
}

TEST(Serialize, RequireEndRejectsTrailingBytes)
{
    ByteWriter w;
    w.u8(1);
    w.u8(2);
    ByteReader r(w.bytes());
    r.u8();
    try {
        r.requireEnd();
        FAIL() << "requireEnd accepted trailing bytes";
    } catch (const SerializeError &err) {
        EXPECT_NE(std::string(err.what()).find("trailing"),
                  std::string::npos);
    }
}

TEST(Serialize, CorruptElementCountRejectedBeforeAllocating)
{
    // A corrupted length prefix must fail the size check, not
    // attempt a multi-gigabyte allocation.
    ByteWriter w;
    w.u32(0xFFFFFFFFu);
    ByteReader r(w.bytes());
    try {
        r.count(8);
        FAIL() << "count accepted an impossible element count";
    } catch (const SerializeError &err) {
        EXPECT_NE(std::string(err.what()).find("count"),
                  std::string::npos);
    }
}

TEST(Serialize, CorruptBooleanRejected)
{
    ByteWriter w;
    w.u8(7);
    ByteReader r(w.bytes());
    EXPECT_THROW(r.boolean(), SerializeError);
}

TEST(Serialize, FingerprintIsOrderSensitive)
{
    const std::vector<std::uint8_t> a{1, 2, 3};
    const std::vector<std::uint8_t> b{3, 2, 1};
    EXPECT_NE(fingerprintBytes(a), fingerprintBytes(b));
    EXPECT_EQ(fingerprintBytes(a), fingerprintBytes(a));
}

TEST(Serialize, ReadMissingFileThrows)
{
    EXPECT_THROW(readBinaryFile("/nonexistent/casq.spec"),
                 SerializeError);
}

// ------------------------------------------- randomized spec sweep

/** Deterministic pseudo-random spec covering the format's span. */
ShardSpec
randomSpec(Rng &rng)
{
    ShardSpec spec;
    const std::size_t n = 2 + rng.uniformInt(4);
    const std::size_t clbits = 1 + rng.uniformInt(3);
    LayeredCircuit circuit(n, clbits);
    const int num_layers = 1 + int(rng.uniformInt(5));
    for (int l = 0; l < num_layers; ++l) {
        switch (rng.uniformInt(3)) {
          case 0: {
            Layer layer{LayerKind::OneQubit, {}};
            for (std::uint32_t q = 0; q < n; ++q) {
                switch (rng.uniformInt(4)) {
                  case 0:
                    layer.insts.emplace_back(
                        Op::SX, std::vector<std::uint32_t>{q});
                    break;
                  case 1:
                    layer.insts.emplace_back(
                        Op::RZ, std::vector<std::uint32_t>{q},
                        std::vector<double>{
                            rng.uniform(-3.14, 3.14)});
                    break;
                  case 2:
                    layer.insts.emplace_back(
                        Op::Delay, std::vector<std::uint32_t>{q},
                        std::vector<double>{
                            rng.uniform(10.0, 900.0)});
                    layer.insts.back().tag = InstTag::DD;
                    break;
                  default:
                    break; // leave the qubit idle
                }
            }
            circuit.addLayer(std::move(layer));
            break;
          }
          case 1: {
            Layer layer{LayerKind::TwoQubit, {}};
            for (std::uint32_t q = 0; q + 1 < n; q += 2)
                if (rng.bernoulli(0.7))
                    layer.insts.emplace_back(
                        Op::ECR,
                        std::vector<std::uint32_t>{q, q + 1});
            circuit.addLayer(std::move(layer));
            break;
          }
          default: {
            Layer layer{LayerKind::Dynamic, {}};
            Instruction measure(
                Op::Measure,
                {std::uint32_t(rng.uniformInt(n))});
            measure.cbit = int(rng.uniformInt(clbits));
            layer.insts.push_back(measure);
            if (n > 1) {
                std::uint32_t other =
                    (measure.qubits[0] + 1) % std::uint32_t(n);
                Instruction fed(Op::X, {other});
                fed.condBit = measure.cbit;
                fed.condValue = int(rng.uniformInt(2));
                layer.insts.push_back(fed);
            }
            circuit.addLayer(std::move(layer));
            break;
          }
        }
    }
    spec.logical = std::move(circuit);

    const std::size_t num_obs = 1 + rng.uniformInt(4);
    for (std::size_t i = 0; i < num_obs; ++i) {
        std::vector<PauliOp> ops;
        for (std::size_t q = 0; q < n; ++q)
            ops.push_back(PauliOp(rng.uniformInt(4)));
        spec.observables.emplace_back(
            std::move(ops), std::uint8_t(rng.uniformInt(4)));
    }

    const auto &strategies = allStrategies();
    spec.strategy = strategyName(
        strategies[rng.uniformInt(strategies.size())]);
    spec.twirl = rng.bernoulli(0.5);
    spec.lowerToNative = rng.bernoulli(0.3);
    spec.backend =
        rng.bernoulli(0.5) ? BackendRecipe::Linear
                           : BackendRecipe::Ring;
    spec.backendQubits = std::uint32_t(n);
    spec.backendSeed = rng.next();
    spec.instances = 1 + int(rng.uniformInt(32));
    spec.compileSeed = rng.next();
    spec.prefixCache = rng.bernoulli(0.5);
    spec.trajectories = 1 + int(rng.uniformInt(500));
    spec.seed = rng.next();
    spec.shardCount = 1 + std::uint32_t(rng.uniformInt(8));
    spec.shardIndex =
        std::uint32_t(rng.uniformInt(spec.shardCount));
    return spec;
}

TEST(Serialize, RandomizedSpecReEncodeIsByteIdentical)
{
    const Rng master(20260728);
    for (std::uint64_t trial = 0; trial < 50; ++trial) {
        Rng rng = master.derive(trial);
        const ShardSpec spec = randomSpec(rng);
        const auto bytes = spec.encode();
        const ShardSpec back = ShardSpec::decode(bytes);
        EXPECT_EQ(back.encode(), bytes) << "trial " << trial;
        // Spot-check decoded semantics, not just bytes.
        EXPECT_EQ(back.shardIndex, spec.shardIndex);
        EXPECT_EQ(back.shardCount, spec.shardCount);
        EXPECT_EQ(back.strategy, spec.strategy);
        EXPECT_EQ(back.logical.layers().size(),
                  spec.logical.layers().size());
        EXPECT_EQ(back.observables.size(),
                  spec.observables.size());
        EXPECT_EQ(back.jobFingerprint(), spec.jobFingerprint());
    }
}

TEST(Serialize, JobFingerprintIgnoresShardIndexOnly)
{
    Rng rng(7);
    ShardSpec spec = randomSpec(rng);
    spec.shardCount = 4;
    spec.shardIndex = 1;
    ShardSpec other = spec;
    other.shardIndex = 3;
    EXPECT_EQ(spec.jobFingerprint(), other.jobFingerprint());
    EXPECT_NE(spec.encode(), other.encode());

    other.seed ^= 1;
    EXPECT_NE(spec.jobFingerprint(), other.jobFingerprint());
}

TEST(Serialize, EveryTruncationOfASpecThrowsInsteadOfCrashing)
{
    Rng rng(11);
    const auto bytes = randomSpec(rng).encode();
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_THROW(ShardSpec::decode(bytes.data(), cut),
                     SerializeError)
            << "cut=" << cut;
    }
}

TEST(Serialize, ByteFlipSweepNeverCrashes)
{
    // Any single-byte corruption must either decode to a valid spec
    // (flips inside doubles/seeds are semantically neutral here) or
    // raise SerializeError -- never abort or read out of bounds.
    Rng rng(13);
    auto bytes = randomSpec(rng).encode();
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] ^= 0xFF;
        try {
            const ShardSpec spec =
                ShardSpec::decode(bytes.data(), bytes.size());
            (void)spec.encode(); // decoded specs must re-encode
        } catch (const SerializeError &) {
            ++rejected;
        }
        bytes[i] ^= 0xFF;
    }
    // The structural prefix (magic, version, counts, opcodes) must
    // reject corruption; only payload-value bytes may pass.
    EXPECT_GT(rejected, bytes.size() / 4);
}

TEST(Serialize, MutatedSpecsDecodeOrThrow)
{
    // Multi-edit mutants (inserts, erases, duplicated slices,
    // truncations) shift every later field, which single-byte flips
    // never do; each must decode to a re-encodable spec or throw.
    Rng rng(20261020);
    std::size_t rejected = 0;
    constexpr int kMutants = 2000;
    for (int trial = 0; trial < kMutants; ++trial) {
        Rng source = rng.derive(std::uint64_t(trial % 16));
        auto bytes = randomSpec(source).encode();
        test::mutate(bytes, rng);
        try {
            const ShardSpec spec = ShardSpec::decode(bytes);
            EXPECT_EQ(ShardSpec::decode(spec.encode()).encode(),
                      spec.encode())
                << "trial " << trial;
        } catch (const SerializeError &) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, std::size_t(kMutants / 2));
}

TEST(Serialize, MutatedNoiseRecipesParseOrThrow)
{
    // The --noise grammar every tool reaches through the one
    // run-flag parser: a mutant either parses to a model whose
    // rendered recipe parses back to the same model, or throws.
    const std::vector<std::string> seeds = {
        "standard", "pauli:0.5", "ideal+corr:0.02:2",
        "coherent+drift:0.001", "standard:2+corr+drift:0.002"};
    const std::string alphabet =
        "standardpaulicoherentidealcorrdrift+:.-0123456789eExp";
    Rng rng(20261021);
    std::size_t parsed = 0;
    std::size_t rejected = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        std::string recipe = seeds[rng.uniformInt(seeds.size())];
        test::mutate(recipe, rng, alphabet);
        try {
            const NoiseModel model = noiseModelFromRecipe(recipe);
            ++parsed;
            EXPECT_EQ(noiseModelFromRecipe(noiseModelRecipe(model)),
                      model)
                << "'" << recipe << "'";
        } catch (const SerializeError &) {
            ++rejected;
        }
    }
    EXPECT_GT(parsed, 200u);
    EXPECT_GT(rejected, 200u);
}

TEST(Serialize, ImplausibleBackendWidthRejectedAtDecode)
{
    // A corrupted backend width must fail in decode, not as a
    // giant makeBackend allocation later.
    Rng rng(29);
    ShardSpec spec = randomSpec(rng);
    spec.backendQubits = 0xFFFFFFFFu;
    EXPECT_THROW(ShardSpec::decode(spec.encode()), SerializeError);
}

TEST(Serialize, VersionMismatchIsDiagnosed)
{
    Rng rng(17);
    auto bytes = randomSpec(rng).encode();
    bytes[4] = 0x2A; // version field follows the 4-byte magic
    try {
        ShardSpec::decode(bytes.data(), bytes.size());
        FAIL() << "decode accepted a version-skewed payload";
    } catch (const SerializeError &err) {
        EXPECT_NE(std::string(err.what()).find("version"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Serialize, WrongMagicIsDiagnosed)
{
    Rng rng(19);
    auto bytes = randomSpec(rng).encode();
    bytes[0] = 'X';
    try {
        ShardSpec::decode(bytes.data(), bytes.size());
        FAIL() << "decode accepted a foreign payload";
    } catch (const SerializeError &err) {
        EXPECT_NE(std::string(err.what()).find("magic"),
                  std::string::npos)
            << err.what();
    }
}

TEST(Serialize, SpecDecoderRejectsResultPayloadAndViceVersa)
{
    Rng rng(23);
    const ShardSpec spec = randomSpec(rng);
    EXPECT_THROW(ShardResult::decode(spec.encode()),
                 SerializeError);

    ShardResult result;
    result.trajectories = 4;
    result.observableCount = 1;
    result.run.slots.assign(result.ownedTrajectories(), 0.5);
    EXPECT_THROW(ShardSpec::decode(result.encode()),
                 SerializeError);
}

TEST(Serialize, ShardResultReEncodeIsByteIdentical)
{
    ShardResult result;
    result.shardIndex = 1;
    result.shardCount = 3;
    result.trajectories = 10;
    result.observableCount = 2;
    result.jobFingerprint = 0xFEEDFACEull;
    result.seed = 42;
    result.compileSeed = 43;
    result.run.instances = {1, 4};
    result.run.fingerprints = {0xA, 0xB};
    result.run.slots.assign(result.ownedTrajectories() * 2, 0.25);
    result.run.stats = RunStats{3, 2};

    const auto bytes = result.encode();
    const ShardResult back = ShardResult::decode(bytes);
    EXPECT_EQ(back.encode(), bytes);
    EXPECT_EQ(back.run.instances, result.run.instances);
    EXPECT_EQ(back.run.fingerprints, result.run.fingerprints);
    EXPECT_EQ(back.run.slots, result.run.slots);
    EXPECT_EQ(back.run.stats.stabilizerTrajectories, 3u);
    EXPECT_EQ(back.run.stats.prefixStateHits, 2u);

    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        EXPECT_THROW(ShardResult::decode(bytes.data(), cut),
                     SerializeError)
            << "cut=" << cut;
    }
}

TEST(Serialize, ShardResultRejectsInconsistentSlotCount)
{
    ShardResult result;
    result.shardIndex = 0;
    result.shardCount = 2;
    result.trajectories = 10; // owns ceil(10/2) = 5 trajectories
    result.observableCount = 2;
    result.run.slots.assign(9, 0.0); // expected 10
    EXPECT_THROW(ShardResult::decode(result.encode()),
                 SerializeError);

    // Counters are shares of the 5 owned trajectories.
    result.run.slots.assign(10, 0.0);
    result.run.stats.prefixStateHits = 6;
    EXPECT_THROW(ShardResult::decode(result.encode()),
                 SerializeError);
}

TEST(Serialize, ShardResultRejectsUnsortedInstances)
{
    ShardResult result;
    result.trajectories = 4;
    result.observableCount = 1;
    result.run.instances = {3, 1};
    result.run.fingerprints = {0xA, 0xB};
    result.run.slots.assign(result.ownedTrajectories(), 0.0);
    EXPECT_THROW(ShardResult::decode(result.encode()),
                 SerializeError);
}

} // namespace
} // namespace casq
