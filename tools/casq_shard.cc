/**
 * @file
 * Sharded ensemble execution over files: plan / run / merge.
 *
 * Multi-host fan-out of an estimator job becomes a shell script (or
 * a two-line scheduler template): `plan` writes one spec file per
 * shard, each `run` may happen in any process on any host, and
 * `merge` reassembles the results into the exact bits a
 * single-process Engine::runEnsemble would have produced:
 *
 *   $ casq_shard plan --shards 3 --out job --qubits 8 --depth 16
 *   $ casq_shard run --spec job.0of3.spec --out job.0of3.result &
 *   $ casq_shard run --spec job.1of3.spec --out job.1of3.result &
 *   $ casq_shard run --spec job.2of3.spec --out job.2of3.result &
 *   $ wait
 *   $ casq_shard merge job.*.result
 *
 * `merge` writes the estimates to stdout and all narration to
 * stderr, so merged outputs of different shard counts of the same
 * job diff clean -- CI pins S=3 against S=1 exactly this way.
 * `describe` pretty-prints a decoded spec or result payload.
 * See docs/sharding.md for the format and determinism contract.
 */

#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/serialize.hh"
#include "sim/shard.hh"
#include "run_flags.hh"
#include "tool_common.hh"

using namespace casq;

namespace {

int
usage(std::ostream &os, int code)
{
    os << "usage: casq_shard <command> [options]\n"
          "\n"
          "commands:\n"
          "  plan   --shards S --out PREFIX [run flags]\n"
          "         write PREFIX.<k>of<S>.spec for every shard\n"
          "  run    --spec FILE --out FILE [--threads N]\n"
          "         execute one shard spec into a result file\n"
          "  merge  FILE...\n"
          "         merge the result files of one job; estimates\n"
          "         go to stdout, narration to stderr\n"
          "  describe FILE\n"
          "         pretty-print a spec or result payload\n"
          "\n";
    tool::printRunFlagUsage(os, tool::RunFlags{});
    return code;
}

std::string
specPath(const std::string &prefix, std::uint32_t k,
         std::uint32_t count)
{
    return prefix + "." + std::to_string(k) + "of" +
           std::to_string(count) + ".spec";
}

int
cmdPlan(int argc, char **argv)
{
    std::uint32_t shards = 1;
    std::string out;
    tool::RunFlags run;
    for (int i = 2; i < argc; ++i) {
        if (run.consume(argc, argv, i))
            continue;
        if (const char *v =
                tool::flagValue(argc, argv, i, "--shards")) {
            shards = std::uint32_t(
                bench::checkedInt("--shards", v, 1, 1 << 20));
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--out")) {
            out = v;
        } else {
            std::cerr << "plan: unknown argument '" << argv[i]
                      << "'\n";
            return usage(std::cerr, 1);
        }
    }
    if (out.empty()) {
        std::cerr << "plan: need --out PREFIX\n";
        return 1;
    }

    ShardSpec spec = run.finish();
    spec.shardCount = shards;
    // Refuse a job no shard could run before writing any file.
    checkBackendWidth(spec);
    // One spec per shard; only the shard index differs, so every
    // file shares the job fingerprint `merge` checks.
    for (std::uint32_t k = 0; k < shards; ++k) {
        spec.shardIndex = k;
        const std::string path = specPath(out, k, shards);
        writeBinaryFile(path, spec.encode());
        std::cerr << "wrote " << path << "\n";
    }
    std::cerr << "job fingerprint: " << std::hex
              << spec.jobFingerprint() << std::dec << " ("
              << spec.instances << " instances, "
              << spec.trajectories << " trajectories over "
              << shards << " shard" << (shards == 1 ? "" : "s")
              << ")\n";
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    std::string spec_path, out_path;
    int threads = 1;
    for (int i = 2; i < argc; ++i) {
        if (const char *v =
                tool::flagValue(argc, argv, i, "--spec")) {
            spec_path = v;
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--out")) {
            out_path = v;
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--threads")) {
            threads =
                int(bench::checkedInt("--threads", v, 0, 4096));
        } else {
            std::cerr << "run: unknown argument '" << argv[i]
                      << "'\n";
            return usage(std::cerr, 1);
        }
    }
    if (spec_path.empty() || out_path.empty()) {
        std::cerr << "run: need --spec FILE and --out FILE\n";
        return 1;
    }

    const ShardSpec spec =
        tool::decodePayloadFile<ShardSpec>(spec_path);
    const ShardResult result = executeShard(spec, threads);
    writeBinaryFile(out_path, result.encode());
    std::cerr << "shard " << spec.shardIndex << "/"
              << spec.shardCount << ": "
              << result.ownedTrajectories() << " trajectories over "
              << result.run.instances.size() << " instance(s) -> "
              << out_path << "\n";
    return 0;
}

int
cmdMerge(int argc, char **argv)
{
    std::vector<std::string> paths;
    for (int i = 2; i < argc; ++i) {
        if (argv[i][0] == '-') {
            std::cerr << "merge: unknown argument '" << argv[i]
                      << "'\n";
            return usage(std::cerr, 1);
        }
        paths.push_back(argv[i]);
    }
    if (paths.empty()) {
        std::cerr << "merge: need at least one result file\n";
        return 1;
    }

    std::vector<ShardResult> shards;
    shards.reserve(paths.size());
    for (const std::string &path : paths)
        shards.push_back(
            tool::decodePayloadFile<ShardResult>(path));
    const RunResult merged = mergeShards(shards);
    std::cerr << "merged " << shards.size() << " shard"
              << (shards.size() == 1 ? "" : "s") << " of job "
              << std::hex << shards.front().jobFingerprint
              << std::dec << "\n";

    // Stdout carries only the estimates, shard-count-independent
    // and bit-exact (hexfloat), so outputs of different shardings
    // of one job can be diffed directly.
    std::cout << "trajectories " << merged.trajectories
              << " observables " << merged.means.size() << "\n";
    for (std::size_t k = 0; k < merged.means.size(); ++k) {
        std::cout << "obs " << k << " mean " << std::hexfloat
                  << merged.means[k] << " stderr "
                  << merged.stderrs[k] << std::defaultfloat
                  << " (" << std::setprecision(6)
                  << merged.means[k] << " +- " << merged.stderrs[k]
                  << ")\n";
    }
    return 0;
}

int
cmdDescribe(int argc, char **argv)
{
    if (argc < 3) {
        std::cerr << "describe: need a payload file\n";
        return 1;
    }
    const std::string path = argv[2];
    const auto bytes = tool::readPayloadFile(path);
    // Dispatch on the magic so a corrupt spec reports the spec
    // decoder's diagnostic instead of a misleading result-decode
    // failure.
    const bool is_spec =
        bytes.size() >= 4 && bytes[0] == 'C' && bytes[1] == 'S' &&
        bytes[2] == 'Q' && bytes[3] == 'S';
    if (is_spec) {
        const ShardSpec spec =
            tool::decodePayload<ShardSpec>(path, bytes);
        std::cout << "shard spec " << spec.shardIndex << "/"
                  << spec.shardCount << "\n"
                  << "  job fingerprint " << std::hex
                  << spec.jobFingerprint() << std::dec << "\n"
                  << "  circuit " << spec.logical.numQubits()
                  << " qubits, " << spec.logical.layers().size()
                  << " layers\n"
                  << "  observables " << spec.observables.size()
                  << "\n"
                  << "  pipeline " << spec.strategy
                  << (spec.twirl ? " (twirled)" : " (untwirled)")
                  << (spec.lowerToNative ? " native" : "") << "\n"
                  << "  backend "
                  << backendRecipeName(spec.backend) << " "
                  << spec.backendQubits << "q seed "
                  << spec.backendSeed << "\n"
                  << "  instances " << spec.instances
                  << " compile-seed " << spec.compileSeed
                  << (spec.prefixCache ? "" : " no-prefix-cache")
                  << "\n"
                  << "  trajectories " << spec.trajectories
                  << " seed " << spec.seed << "\n"
                  << "  sim-backend "
                  << simBackendKindName(spec.simBackend)
                  << " noise " << noiseModelRecipe(spec.noise)
                  << " prefix-state "
                  << prefixStateModeName(spec.prefixState)
                  << "\n";
        return 0;
    }
    const ShardResult result =
        tool::decodePayload<ShardResult>(path, bytes);
    std::cout << "shard result " << result.shardIndex << "/"
              << result.shardCount << "\n"
              << "  job fingerprint " << std::hex
              << result.jobFingerprint << std::dec << "\n"
              << "  owns " << result.ownedTrajectories() << " of "
              << result.trajectories << " trajectories, "
              << result.observableCount << " observable(s)\n"
              << "  compiled instances:";
    for (std::size_t i = 0; i < result.run.instances.size(); ++i)
        std::cout << " " << result.run.instances[i] << ":" << std::hex
                  << result.run.fingerprints[i] << std::dec;
    std::cout << "\n  seeds sim " << result.seed << " compile "
              << result.compileSeed << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 1);
    const std::string command = argv[1];
    return tool::runTool("casq_shard", [&]() -> int {
        if (command == "plan")
            return cmdPlan(argc, argv);
        if (command == "run")
            return cmdRun(argc, argv);
        if (command == "merge")
            return cmdMerge(argc, argv);
        if (command == "describe")
            return cmdDescribe(argc, argv);
        if (command == "--help" || command == "help")
            return usage(std::cout, 0);
        std::cerr << "unknown command '" << command << "'\n";
        return usage(std::cerr, 1);
    });
}
