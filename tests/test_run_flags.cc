/**
 * @file
 * The shared run-flag parser (tools/run_flags.hh): every run flag
 * sets exactly its ShardSpec field, anything else is left for the
 * tool, a value flag with no value is diagnosed by name, and
 * casq_compile's default run gives the same bits as one shard
 * executed and merged.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "run_flags.hh"

namespace casq {
namespace {

/** argv-style view of a token list (argv[0] is the tool name). */
struct Argv
{
    std::vector<std::string> tokens;
    std::vector<char *> ptrs;

    explicit Argv(std::vector<std::string> args)
        : tokens(std::move(args))
    {
        tokens.insert(tokens.begin(), "tool");
        for (std::string &t : tokens)
            ptrs.push_back(t.data());
    }
    int argc() const { return int(ptrs.size()); }
    char **argv() { return ptrs.data(); }
};

/** Feed every token to consume(); all of them must be run flags. */
tool::RunFlags
parse(tool::RunFlags run, std::vector<std::string> args)
{
    Argv a(std::move(args));
    for (int i = 1; i < a.argc(); ++i)
        EXPECT_TRUE(run.consume(a.argc(), a.argv(), i))
            << a.tokens[std::size_t(i)];
    return run;
}

struct FlagCase
{
    std::vector<std::string> args;
    /** Copy the field(s) this flag owns from `base` into `spec`. */
    std::function<void(ShardSpec &spec, const ShardSpec &base)> restore;
};

/** One case per run flag, each moving its field off every default. */
std::vector<FlagCase>
flagCases()
{
    return {
        {{"--qubits", "5"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.logical = b.logical;
             s.observables = b.observables;
             s.backendQubits = b.backendQubits;
         }},
        {{"--depth", "3"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.logical = b.logical;
         }},
        {{"--strategy", "ca-ec+dd"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.strategy = b.strategy;
         }},
        {{"--backend", "ring"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.backend = b.backend;
         }},
        {{"--backend-seed", "99"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.backendSeed = b.backendSeed;
         }},
        {{"--instances", "3"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.instances = b.instances;
         }},
        {{"--traj", "17"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.trajectories = b.trajectories;
         }},
        {{"--seed", "5"},
         [](ShardSpec &s, const ShardSpec &b) { s.seed = b.seed; }},
        {{"--compile-seed", "6"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.compileSeed = b.compileSeed;
         }},
        {{"--sim-backend", "stabilizer"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.simBackend = b.simBackend;
         }},
        {{"--noise", "pauli+drift"},
         [](ShardSpec &s, const ShardSpec &b) { s.noise = b.noise; }},
        {{"--prefix-state", "off"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.prefixState = b.prefixState;
         }},
        {{"--no-twirl"},
         [](ShardSpec &s, const ShardSpec &b) { s.twirl = b.twirl; }},
        {{"--native"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.lowerToNative = b.lowerToNative;
         }},
        {{"--no-prefix-cache"},
         [](ShardSpec &s, const ShardSpec &b) {
             s.prefixCache = b.prefixCache;
         }},
    };
}

TEST(RunFlags, EveryFlagSetsExactlyItsField)
{
    ASSERT_EQ(flagCases().size(), 15u);
    for (const tool::RunFlags &defaults :
         {tool::RunFlags{}, tool::compileRunDefaults()}) {
        tool::RunFlags base_run = defaults;
        const ShardSpec base = base_run.finish();
        for (const FlagCase &c : flagCases()) {
            tool::RunFlags run = parse(defaults, c.args);
            // Through the wire: the decoded spec is what a shard
            // host or the job service would execute.
            ShardSpec spec = ShardSpec::decode(run.finish().encode());
            EXPECT_NE(spec.jobFingerprint(), base.jobFingerprint())
                << c.args[0] << " left the job unchanged";
            c.restore(spec, base);
            EXPECT_EQ(spec.encode(), base.encode())
                << c.args[0] << " changed another field";
        }
    }
}

TEST(RunFlags, UsageListsEveryFlag)
{
    std::ostringstream usage;
    tool::printRunFlagUsage(usage, tool::RunFlags{});
    for (const FlagCase &c : flagCases())
        EXPECT_NE(usage.str().find("  " + c.args[0] + " "),
                  std::string::npos)
            << c.args[0];
}

TEST(RunFlags, UnknownFlagsAreLeftForTheTool)
{
    Argv a({"--ensemble", "3", "--threads", "2", "--simulate",
            "--shards", "4", "--id", "x", "--traj-typo", "9"});
    tool::RunFlags run;
    const std::vector<std::uint8_t> before = run.spec.encode();
    for (int i = 1; i < a.argc(); ++i) {
        const int at = i;
        EXPECT_FALSE(run.consume(a.argc(), a.argv(), i))
            << a.tokens[std::size_t(at)];
        EXPECT_EQ(i, at);
    }
    EXPECT_EQ(run.spec.encode(), before);
    EXPECT_EQ(run.qubits, 8u);
    EXPECT_EQ(run.depth, 16);
}

TEST(RunFlags, MissingValueIsDiagnosedByName)
{
    for (const FlagCase &c : flagCases()) {
        if (c.args.size() < 2)
            continue; // switches take no value
        Argv a({c.args[0]});
        tool::RunFlags run;
        int i = 1;
        try {
            run.consume(a.argc(), a.argv(), i);
            ADD_FAILURE() << c.args[0] << " without a value parsed";
        } catch (const std::invalid_argument &err) {
            EXPECT_EQ(std::string(err.what()),
                      c.args[0] + " needs a value");
        }
    }
    // The tools' own value flags go through the same helper.
    Argv a({"--threads"});
    int i = 1;
    EXPECT_THROW(tool::flagValue(a.argc(), a.argv(), i, "--threads"),
                 std::invalid_argument);
}

TEST(RunFlags, BadNamesThrowWithADiagnostic)
{
    EXPECT_THROW(parse(tool::RunFlags{}, {"--strategy", "ca-zz"}),
                 std::invalid_argument);
    EXPECT_THROW(parse(tool::RunFlags{}, {"--sim-backend", "gpu"}),
                 std::invalid_argument);
    EXPECT_THROW(parse(tool::RunFlags{}, {"--prefix-state", "on"}),
                 std::invalid_argument);
    // The device and noise names are the library's own parsers.
    try {
        parse(tool::RunFlags{}, {"--backend", "dense"});
        ADD_FAILURE() << "--backend dense parsed";
    } catch (const SerializeError &err) {
        EXPECT_EQ(std::string(err.what()),
                  "unknown backend recipe 'dense'");
    }
    EXPECT_THROW(parse(tool::RunFlags{}, {"--noise", "loud"}),
                 SerializeError);
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

TEST(RunFlags, CompileDefaultsShardEqualsRunEnsemble)
{
    tool::RunFlags run = tool::compileRunDefaults();
    const ShardSpec &spec = run.finish();

    const Backend backend = spec.makeBackend(); // the engine borrows it
    SimulationEngine engine(backend, spec.makeNoise());
    PassManager pipeline = spec.makePipeline();
    const RunResult direct = engine.runEnsemble(
        spec.logical, pipeline, spec.observables, spec.runOptions(2));

    const RunResult merged = mergeShards({executeShard(spec, 3)});
    ASSERT_EQ(merged.trajectories, direct.trajectories);
    ASSERT_EQ(merged.means.size(), spec.observables.size());
    ASSERT_EQ(direct.means.size(), spec.observables.size());
    for (std::size_t k = 0; k < merged.means.size(); ++k) {
        EXPECT_EQ(bitsOf(merged.means[k]), bitsOf(direct.means[k]))
            << "observable " << k;
        EXPECT_EQ(bitsOf(merged.stderrs[k]),
                  bitsOf(direct.stderrs[k]))
            << "observable " << k;
    }
    EXPECT_EQ(merged.prefixStateHits, direct.prefixStateHits);
}

} // namespace
} // namespace casq
