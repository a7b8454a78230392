/**
 * @file
 * The one command-line parser for the run description.
 *
 * casq_compile, `casq_shard plan` and `casq_job submit` all describe
 * a run as a ShardSpec (the versioned wire record of docs/sharding.md)
 * plus the synthetic chain's qubits and depth.  Each tool starts from
 * its own defaults, feeds every argument to RunFlags::consume() first,
 * and handles only what that leaves; finish() then builds the
 * workload.  A flag therefore means the same thing in every tool and
 * sets exactly one ShardSpec field -- only the defaults differ.  The
 * "Run flags" table in docs/sharding.md lists them all.
 *
 * casq_serve does not include this header: it takes no run flags,
 * and the benchmark builds casq_serve.cc on its own.
 */

#ifndef CASQ_TOOLS_RUN_FLAGS_HH
#define CASQ_TOOLS_RUN_FLAGS_HH

#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

#include "bench_common.hh"
#include "sim/shard.hh"
#include "tool_common.hh"

namespace casq::tool {

/** The run description one command line fills. */
struct RunFlags
{
    ShardSpec spec;
    std::size_t qubits = 8; //!< synthetic chain length
    int depth = 16;         //!< ECR/idle layer pairs

    /**
     * Consume argv[i] (and its value) if it is a run flag; return
     * false, leaving i alone, for anything else.  Bad values throw
     * (unknown names) or exit(1) (malformed numbers, via bench::).
     */
    bool
    consume(int argc, char **argv, int &i)
    {
        constexpr long long kMaxInt = std::numeric_limits<int>::max();
        const char *arg = argv[i];
        if (const char *v = flagValue(argc, argv, i, "--qubits")) {
            qubits = std::size_t(
                bench::checkedInt(arg, v, 1, 1 << 20));
        } else if (const char *v =
                       flagValue(argc, argv, i, "--depth")) {
            depth = int(bench::checkedInt(arg, v, 0, kMaxInt));
        } else if (const char *v =
                       flagValue(argc, argv, i, "--strategy")) {
            if (!strategyFromName(v)) {
                std::string known;
                for (Strategy s : allStrategies())
                    known.append(" ").append(strategyName(s));
                throw std::invalid_argument(
                    "unknown strategy '" + std::string(v) +
                    "'; known:" + known);
            }
            spec.strategy = v;
        } else if (const char *v =
                       flagValue(argc, argv, i, "--backend")) {
            spec.backend = backendRecipeFromName(v);
        } else if (const char *v =
                       flagValue(argc, argv, i, "--backend-seed")) {
            spec.backendSeed = bench::checkedUInt64(arg, v);
        } else if (const char *v =
                       flagValue(argc, argv, i, "--instances")) {
            spec.instances =
                int(bench::checkedInt(arg, v, 1, kMaxInt));
        } else if (const char *v = flagValue(argc, argv, i, "--traj")) {
            spec.trajectories =
                int(bench::checkedInt(arg, v, 1, kMaxInt));
        } else if (const char *v = flagValue(argc, argv, i, "--seed")) {
            spec.seed = bench::checkedUInt64(arg, v);
        } else if (const char *v =
                       flagValue(argc, argv, i, "--compile-seed")) {
            spec.compileSeed = bench::checkedUInt64(arg, v);
        } else if (const char *v =
                       flagValue(argc, argv, i, "--sim-backend")) {
            const auto kind = simBackendKindFromName(v);
            if (!kind)
                throw std::invalid_argument(
                    "unknown simulation backend '" + std::string(v) +
                    "'; expected auto, dense or stabilizer");
            spec.simBackend = *kind;
        } else if (const char *v =
                       flagValue(argc, argv, i, "--noise")) {
            spec.noise = noiseModelFromRecipe(v);
        } else if (const char *v =
                       flagValue(argc, argv, i, "--prefix-state")) {
            const auto mode = prefixStateModeFromName(v);
            if (!mode)
                throw std::invalid_argument(
                    "unknown prefix-state mode '" + std::string(v) +
                    "'; expected auto or off");
            spec.prefixState = *mode;
        } else if (std::strcmp(arg, "--no-twirl") == 0) {
            spec.twirl = false;
        } else if (std::strcmp(arg, "--native") == 0) {
            spec.lowerToNative = true;
        } else if (std::strcmp(arg, "--no-prefix-cache") == 0) {
            spec.prefixCache = false;
        } else {
            return false;
        }
        return true;
    }

    /**
     * Build the workload the flags describe: the alternating ECR /
     * idle chain, one Z observable per qubit, and a device of the
     * same width.
     */
    const ShardSpec &
    finish()
    {
        spec.logical = bench::syntheticChainWorkload(
            qubits, depth, /*idle_layers=*/true);
        spec.backendQubits = std::uint32_t(qubits);
        spec.observables.clear();
        for (std::uint32_t q = 0; q < qubits; ++q)
            spec.observables.push_back(
                PauliString::single(qubits, q, PauliOp::Z));
        return spec;
    }
};

/**
 * casq_compile's defaults: one instance, 400 trajectories, seed 2024
 * for both compile and simulation, device seed 7 and the auto
 * substrate.  `casq_shard plan` and `casq_job submit` start from a
 * plain RunFlags{} (the ShardSpec defaults).
 */
inline RunFlags
compileRunDefaults()
{
    RunFlags run;
    run.spec.instances = 1;
    run.spec.trajectories = 400;
    run.spec.seed = 2024;
    run.spec.compileSeed = 2024;
    run.spec.backendSeed = 7;
    run.spec.simBackend = SimBackendKind::Auto;
    return run;
}

/** The run-flag usage block, showing this tool's defaults. */
inline void
printRunFlagUsage(std::ostream &os, const RunFlags &defaults)
{
    const ShardSpec &d = defaults.spec;
    os << "run flags (same meaning in casq_compile, casq_shard plan\n"
          "and casq_job submit; docs/sharding.md \"Run flags\"):\n"
       << "  --qubits N          chain length (" << defaults.qubits
       << ")\n"
       << "  --depth D           ECR/idle layer pairs ("
       << defaults.depth << ")\n"
       << "  --strategy NAME     suppression strategy (" << d.strategy
       << ")\n"
       << "  --backend NAME      device recipe: linear|ring|nazca|\n"
          "                      sherbrooke ("
       << backendRecipeName(d.backend) << ")\n"
       << "  --backend-seed X    device calibration seed ("
       << d.backendSeed << ")\n"
       << "  --instances M       twirled instances (" << d.instances
       << ")\n"
       << "  --traj T            total trajectories ("
       << d.trajectories << ")\n"
       << "  --seed S            simulation master seed (" << d.seed
       << ")\n"
       << "  --compile-seed C    compilation master seed ("
       << d.compileSeed << ")\n"
       << "  --sim-backend B     simulation substrate: auto|dense|\n"
          "                      stabilizer ("
       << simBackendKindName(d.simBackend) << ")\n"
       << "  --noise RECIPE      base[:scale] of standard|pauli|ideal|\n"
          "                      coherent plus +corr[:sig[:len]] and\n"
          "                      +drift[:rate] extras ("
       << noiseModelRecipe(d.noise) << "; docs/noise.md)\n"
       << "  --prefix-state M    trajectory checkpoint reuse: auto|off\n"
          "                      ("
       << prefixStateModeName(d.prefixState)
       << "; never changes a result bit)\n"
       << "  --no-twirl          disable Pauli twirling\n"
       << "  --native            lower to the native gate set\n"
       << "  --no-prefix-cache   recompile the pass prefix per "
          "instance\n";
}

} // namespace casq::tool

#endif // CASQ_TOOLS_RUN_FLAGS_HH
