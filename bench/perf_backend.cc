/**
 * @file
 * Dense-vs-stabilizer backend throughput (sim/backend.hh).
 *
 * Two measurements on the twirled Pauli-noise chain workload (the
 * Clifford regime where the routing actually has a choice):
 *
 *  - head-to-head at a dense-feasible size: the same fused ensemble
 *    run through --backend dense and --backend stabilizer.  Before
 *    any timing is reported the two estimates are compared to
 *    1e-12 -- a diverging backend fails the bench, so the CI timing
 *    run doubles as an agreement gate on the backend contract;
 *
 *  - a stabilizer scaling sweep over qubit counts far past the
 *    24-qubit dense limit, which is the headline capability the
 *    tableau buys (docs/backends.md).
 *
 * Use --json FILE to append the numbers to the BENCH_*.json
 * trajectory.
 *
 *   $ ./perf_backend --traj 400 --qubits 8
 *   $ ./perf_backend --scaling-list 16,32,64 --json BENCH_perf_backend.json
 */

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "passes/pipeline.hh"
#include "sim/engine.hh"
#include "sim/statevector.hh"

using namespace casq;

namespace {

struct PerfOptions
{
    int trajectories = 400;
    int instances = 8;
    std::size_t qubits = 8; //!< head-to-head (dense-feasible) size
    int depth = 12;
    std::uint64_t seed = 2024;
    int threads = 1;
    std::vector<std::size_t> scalingList{16, 32, 64};
    std::string jsonPath;
};

/** One measured configuration. */
struct Sample
{
    std::string config;
    std::size_t qubits = 0;
    double wallMillis = 0.0;
    int trajectories = 0;
    std::uint64_t stabilizerTrajectories = 0;

    double
    trajectoriesPerSecond() const
    {
        return wallMillis > 0.0
                   ? 1e3 * double(trajectories) / wallMillis
                   : 0.0;
    }
};

void
usage(const char *prog)
{
    std::cout
        << "usage: " << prog << " [options]\n"
        << "  --traj N          trajectory budget (default 400)\n"
        << "  --instances N     twirled variants (default 8)\n"
        << "  --qubits N        head-to-head chain length\n"
        << "                    (default 8; must be <= "
        << Statevector::kMaxQubits << ")\n"
        << "  --depth D         layer pairs (default 12)\n"
        << "  --seed S          master seed (default 2024)\n"
        << "  --threads N       workers (default 1; 0 = all cores)\n"
        << "  --scaling-list L  comma-separated stabilizer-only\n"
        << "                    qubit counts (default 16,32,64)\n"
        << "  --json FILE       write machine-readable results\n";
}

PerfOptions
parse(int argc, char **argv)
{
    PerfOptions options;
    for (int i = 1; i < argc; ++i) {
        auto value = [&](const char *flag) -> const char * {
            if (std::strcmp(argv[i], flag) == 0 && i + 1 < argc)
                return argv[++i];
            return nullptr;
        };
        if (std::strcmp(argv[i], "--help") == 0) {
            usage(argv[0]);
            std::exit(0);
        } else if (const char *v = value("--traj")) {
            options.trajectories = int(bench::checkedInt(
                "--traj", v, 1,
                std::numeric_limits<int>::max()));
        } else if (const char *v = value("--instances")) {
            options.instances = int(bench::checkedInt(
                "--instances", v, 1,
                std::numeric_limits<int>::max()));
        } else if (const char *v = value("--qubits")) {
            options.qubits = std::size_t(
                bench::checkedInt("--qubits", v, 1,
                                  Statevector::kMaxQubits));
        } else if (const char *v = value("--depth")) {
            options.depth = int(bench::checkedInt(
                "--depth", v, 0,
                std::numeric_limits<int>::max()));
        } else if (const char *v = value("--seed")) {
            options.seed = bench::checkedUInt64("--seed", v);
        } else if (const char *v = value("--threads")) {
            options.threads =
                int(bench::checkedInt("--threads", v, 0, 4096));
        } else if (const char *v = value("--scaling-list")) {
            options.scalingList.clear();
            for (long long q : bench::checkedIntList(
                     "--scaling-list", v, 1, 1 << 20))
                options.scalingList.push_back(std::size_t(q));
        } else if (const char *v = value("--json")) {
            options.jsonPath = v;
        } else {
            std::cerr << "unknown argument '" << argv[i] << "'\n";
            usage(argv[0]);
            std::exit(1);
        }
    }
    return options;
}

double
wallMillisSince(std::chrono::steady_clock::time_point begin)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - begin)
        .count();
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

EnsembleRunOptions
runOptions(const PerfOptions &options, SimBackendKind backend)
{
    EnsembleRunOptions opts;
    opts.instances = options.instances;
    opts.compileSeed = options.seed;
    opts.trajectories = options.trajectories;
    opts.seed = options.seed;
    opts.threads = options.threads;
    opts.backend = backend;
    return opts;
}

/** One timed fused ensemble run on a fresh engine. */
Sample
measure(const PerfOptions &options, std::size_t qubits,
        SimBackendKind backend, const std::string &config,
        RunResult *out = nullptr)
{
    const Backend device = makeFakeLinear(qubits, 7);
    const LayeredCircuit circuit = bench::syntheticChainWorkload(
        qubits, options.depth, /*idle_layers=*/true);
    SimulationEngine engine(device, NoiseModel::pauliOnly());
    PassManager pipeline = buildPipeline(Strategy::CaDd);

    const auto begin = std::chrono::steady_clock::now();
    const RunResult result =
        engine.runEnsemble(circuit, pipeline, zObservables(qubits),
                           runOptions(options, backend));
    Sample sample;
    sample.config = config;
    sample.qubits = qubits;
    sample.wallMillis = wallMillisSince(begin);
    sample.trajectories = result.trajectories;
    sample.stabilizerTrajectories = result.stabilizerTrajectories;
    if (out)
        *out = result;
    return sample;
}

/** Hard gate: diverging backends fail the bench. */
void
requireAgreement(const RunResult &dense, const RunResult &tableau)
{
    if (dense.means.size() != tableau.means.size() ||
        dense.trajectories != tableau.trajectories) {
        std::cerr << "FAIL: backend runs have mismatched shapes\n";
        std::exit(1);
    }
    for (std::size_t k = 0; k < dense.means.size(); ++k) {
        if (std::abs(dense.means[k] - tableau.means[k]) > 1e-12) {
            std::cerr << "FAIL: observable " << k << " diverged ("
                      << dense.means[k] << " dense vs "
                      << tableau.means[k] << " stabilizer)\n";
            std::exit(1);
        }
    }
}

void
report(const std::vector<Sample> &samples)
{
    std::cout << std::left << std::setw(14) << "config"
              << std::right << std::setw(8) << "qubits"
              << std::setw(12) << "wall ms" << std::setw(12)
              << "traj/s" << std::setw(12) << "tableau" << "\n";
    for (const Sample &s : samples)
        std::cout << std::left << std::setw(14) << s.config
                  << std::right << std::setw(8) << s.qubits
                  << std::setw(12) << std::fixed
                  << std::setprecision(2) << s.wallMillis
                  << std::setw(12) << std::setprecision(0)
                  << s.trajectoriesPerSecond() << std::setw(12)
                  << s.stabilizerTrajectories << "\n";
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const PerfOptions options = parse(argc, argv);

    // ------------------------- head-to-head at a dense-feasible size
    RunResult dense_result, tableau_result;
    std::vector<Sample> all;
    all.push_back(measure(options, options.qubits,
                          SimBackendKind::Dense, "dense",
                          &dense_result));
    all.push_back(measure(options, options.qubits,
                          SimBackendKind::Stabilizer, "stabilizer",
                          &tableau_result));
    requireAgreement(dense_result, tableau_result);

    // --------------------------------- stabilizer-only scaling sweep
    for (std::size_t qubits : options.scalingList) {
        all.push_back(measure(
            options, qubits, SimBackendKind::Auto,
            "stabilizer-" + std::to_string(qubits)));
        if (all.back().stabilizerTrajectories !=
            std::uint64_t(all.back().trajectories)) {
            std::cerr << "FAIL: scaling run at " << qubits
                      << " qubits did not route to the tableau\n";
            return 1;
        }
    }

    report(all);
    if (!options.jsonPath.empty()) {
        bench::BenchJsonWriter json("perf_backend");
        json.meta()
            .add("qubits", options.qubits)
            .add("depth", options.depth)
            .add("instances", options.instances)
            .add("trajectories", options.trajectories)
            .add("threads", options.threads);
        for (const Sample &s : all) {
            json.newSample()
                .add("config", s.config)
                .add("qubits", s.qubits)
                .add("wall_ms", s.wallMillis, 3)
                .add("trajectories_per_s",
                     s.trajectoriesPerSecond(), 1);
        }
        json.write(options.jsonPath);
    }
    return 0;
}
