/**
 * @file
 * Command-line compiler driver: build a synthetic workload, compile
 * it under a named strategy, and report the pipeline's per-pass
 * timings and schedule statistics.
 *
 *   $ ./casq_compile --strategy ca-dd --qubits 8 --depth 16
 *   $ ./casq_compile --list-strategies
 *   $ ./casq_compile --strategy ca-ec+dd --dump
 *   $ ./casq_compile --ensemble 100 --threads 4
 *   $ ./casq_compile --ensemble 16 --simulate --traj 400 --threads 4
 *
 * The run description (workload, strategy, device, seeds, noise) is
 * parsed by the shared run-flag parser (run_flags.hh) into the
 * same ShardSpec `casq_shard plan` and `casq_job submit` fill, and
 * every mode builds its device, pipeline and observables from that
 * spec.  Without --simulate, PassManager::compile() reports one
 * instance's per-pass metrics; with --ensemble M,
 * PassManager::runEnsemble() compiles M twirled instances on
 * --threads workers (the schedules are identical for every thread
 * count).  --simulate runs SimulationEngine's fused
 * compile->simulate path on spec.runOptions(): the same calls
 * executeShard() makes, so a sharded or served job with the same
 * flags prints the same <Z_q> bits.
 */

#include <chrono>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <limits>
#include <string>

#include "common/logging.hh"
#include "passes/builtin.hh"
#include "run_flags.hh"
#include "tool_common.hh"

using namespace casq;

namespace {

void
usage(const char *prog)
{
    std::cout
        << "usage: " << prog << " [run flags] [options]\n"
        << "  --ensemble M      compile M twirled instances (sets\n"
        << "                    the instance count) and report the\n"
        << "                    ensemble wall time\n"
        << "  --threads N       ensemble-compilation workers\n"
        << "                    (default 1; 0 = one per core)\n"
        << "  --simulate        stream the instances through the\n"
        << "                    fused compile->simulate engine and\n"
        << "                    report <Z_q> with throughput\n"
        << "  --hexfloat        print --simulate estimates as\n"
        << "                    bit-exact hexfloat (diffable)\n"
        << "  --analyze-idle    report residual idle windows after\n"
        << "                    compilation (grafts an analysis pass)\n"
        << "  --dump            print the full schedule\n"
        << "  --verbose         per-pass debug logging\n"
        << "  --list-strategies print known strategy names\n"
        << "\n";
    tool::printRunFlagUsage(std::cout, tool::compileRunDefaults());
}

int
compileMain(int argc, char **argv)
{
    tool::RunFlags run = tool::compileRunDefaults();
    int ensemble = 0;      //!< 0 = single-instance compile
    unsigned threads = 1;  //!< workers (0 = one per core)
    bool simulate = false; //!< fused compile->simulate run
    bool analyze_idle = false;
    bool dump = false;
    bool hexfloat = false; //!< bit-exact --simulate estimates
    for (int i = 1; i < argc; ++i) {
        if (run.consume(argc, argv, i))
            continue;
        if (std::strcmp(argv[i], "--help") == 0) {
            usage(argv[0]);
            return 0;
        } else if (std::strcmp(argv[i], "--list-strategies") == 0) {
            for (Strategy s : allStrategies())
                std::cout << strategyName(s) << "\n";
            return 0;
        } else if (std::strcmp(argv[i], "--hexfloat") == 0) {
            hexfloat = true;
        } else if (std::strcmp(argv[i], "--simulate") == 0) {
            simulate = true;
        } else if (std::strcmp(argv[i], "--analyze-idle") == 0) {
            analyze_idle = true;
        } else if (std::strcmp(argv[i], "--dump") == 0) {
            dump = true;
        } else if (std::strcmp(argv[i], "--verbose") == 0) {
            setLogLevel(LogLevel::Debug);
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--ensemble")) {
            ensemble = int(bench::checkedInt(
                "--ensemble", v, 0,
                std::numeric_limits<int>::max()));
            if (ensemble > 0)
                run.spec.instances = ensemble;
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--threads")) {
            threads = unsigned(
                bench::checkedInt("--threads", v, 0, 4096));
        } else {
            std::cerr << "unknown argument '" << argv[i] << "'\n";
            usage(argv[0]);
            return 1;
        }
    }

    // The same four calls executeShard() makes: device, pipeline,
    // observables and engine options all come from the spec.
    const ShardSpec &spec = run.finish();
    const Backend backend = spec.makeBackend();
    PassManager pipeline = spec.makePipeline();
    if (analyze_idle)
        pipeline.emplace<IdleAnalysisPass>(
            CompileOptions{}.cadd.minDuration);
    std::cout << "strategy: " << spec.strategy << "\npipeline:";
    for (const std::string &name : pipeline.passNames())
        std::cout << " " << name;
    std::cout << "\ndeterministic prefix: "
              << pipeline.stochasticPrefixLength() << " of "
              << pipeline.passNames().size() << " passes\n\n";

    if (simulate) {
        // Fused compile->simulate: instances stream out of the
        // pipeline straight into their trajectory share on one
        // pool -- no schedule vector in between (which is also why
        // there is nothing for --dump to print here).
        if (dump)
            std::cout << "(--dump ignored with --simulate: the "
                         "fused path materializes no schedule)\n";
        // The engine would panic on a width mismatch.
        checkBackendWidth(spec);
        SimulationEngine engine(backend, spec.makeNoise());
        // A deterministic pipeline compiles a single instance no
        // matter what --ensemble asked for.
        const int instances =
            pipeline.stochastic() ? spec.instances : 1;
        const auto begin = std::chrono::steady_clock::now();
        const RunResult result =
            engine.runEnsemble(spec.logical, pipeline,
                               spec.observables,
                               spec.runOptions(int(threads)));
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - begin)
                .count();
        std::cout << "fused ensemble: " << instances
                  << " instances, " << result.trajectories
                  << " trajectories on " << threads
                  << " thread" << (threads == 1 ? "" : "s")
                  << (threads == 0 ? " (all cores)" : "")
                  << "\n"
                  << std::fixed << std::setprecision(3)
                  << "wall time: " << wall_ms << " ms ("
                  << std::setprecision(1)
                  << 1e3 * double(result.trajectories) / wall_ms
                  << " trajectories/s)\n"
                  << "backend: "
                  << simBackendKindName(spec.simBackend) << " ("
                  << result.stabilizerTrajectories << " of "
                  << result.trajectories
                  << " trajectories on the stabilizer tableau, "
                  << (result.trajectories -
                      result.stabilizerTrajectories)
                  << " dense)\n"
                  << "prefix state: "
                  << prefixStateModeName(spec.prefixState) << " ("
                  << result.prefixStateHits << " of "
                  << result.trajectories
                  << " trajectories forked from a checkpoint)\n";
        // Hexfloat estimates are bit-exact, so runs that must agree
        // (any thread count, the committed goldens) diff clean.
        if (hexfloat)
            std::cout << std::hexfloat;
        else
            std::cout << std::setprecision(6);
        for (std::size_t q = 0; q < result.means.size(); ++q)
            std::cout << "<Z_" << q << "> = " << result.means[q]
                      << " +- " << result.stderrs[q] << "\n";
        return 0;
    }

    if (ensemble > 0) {
        EnsembleOptions options;
        options.instances = spec.instances;
        options.seed = spec.compileSeed;
        options.threads = threads;
        options.prefixCache = spec.prefixCache;
        const EnsembleResult result =
            pipeline.runEnsemble(spec.logical, backend, options);

        const std::size_t count = result.instances.size();
        std::cout << "ensemble: " << count << " instance"
                  << (count == 1 ? "" : "s") << " on "
                  << threads << " thread"
                  << (threads == 1 ? "" : "s")
                  << (threads == 0 ? " (all cores)" : "")
                  << "\n";
        if (result.prefixLength > 0)
            std::cout << "prefix cache: " << result.prefixLength
                      << " deterministic pass"
                      << (result.prefixLength == 1 ? "" : "es")
                      << " compiled once, served "
                      << result.prefixHits << " instance"
                      << (result.prefixHits == 1 ? "" : "s")
                      << " from the snapshot\n";
        double pass_millis = 0.0;
        for (const CompilationResult &instance : result.instances)
            pass_millis += instance.totalMillis();
        std::cout << std::fixed << std::setprecision(3)
                  << "wall time: " << result.wallMillis << " ms ("
                  << std::setprecision(1)
                  << 1e3 * double(count) / result.wallMillis
                  << " instances/s; " << std::setprecision(3)
                  << result.wallMillis / double(count)
                  << " ms/instance)\n"
                  << "aggregate pass time: " << pass_millis
                  << " ms\n";
        const ScheduledCircuit &first =
            result.instances.front().scheduled;
        std::cout << "schedule: " << first.instructions().size()
                  << " instructions, " << first.totalDuration()
                  << " ns (instance 0)\n";
        if (dump)
            std::cout << "\n" << first.toString();
        return 0;
    }

    Rng rng(spec.compileSeed);
    const CompilationResult result =
        pipeline.compile(spec.logical, backend, rng);

    std::cout << "pass timings:\n";
    for (const PassMetric &metric : result.metrics)
        std::cout << "  " << std::left << std::setw(22)
                  << metric.name << std::fixed
                  << std::setprecision(3) << metric.millis
                  << " ms\n";
    std::cout << "  " << std::left << std::setw(22) << "total"
              << std::fixed << std::setprecision(3)
              << result.totalMillis() << " ms\n\n";

    const ScheduledCircuit &sched = result.scheduled;
    std::cout << "schedule: " << sched.instructions().size()
              << " instructions, " << sched.totalDuration()
              << " ns\n";
    if (const auto *gates =
            result.property<std::size_t>(kTwirlGatesKey))
        std::cout << "twirl gates inserted: " << *gates << "\n";
    if (const auto *windows =
            result.property<std::vector<IdleWindow>>(
                kIdleWindowsKey))
        std::cout << "residual idle windows >= Dmin: "
                  << windows->size() << "\n";
    if (const auto *pulses =
            result.property<std::size_t>(kDdPulsesKey))
        std::cout << "DD pulses inserted: " << *pulses << "\n";
    if (const auto *stats =
            result.property<CaecStats>(kCaecStatsKey))
        std::cout << "CA-EC: " << stats->absorbedIntoGates
                  << " absorbed, " << stats->insertedRz << " rz, "
                  << stats->insertedRzz << " rzz\n";
    for (const std::string &note : result.notes)
        std::cout << "note: " << note << "\n";

    if (dump)
        std::cout << "\n" << sched.toString();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return tool::runTool("casq_compile",
                         [&] { return compileMain(argc, argv); });
}
