/**
 * @file
 * simulate-ca-dd: fused compile -> simulate.
 *
 * The 8-qubit depth-16 idle chain under ca-dd, standard noise, the
 * dense substrate and prefixState auto; 8 instances and 256
 * trajectories per estimate, on 2 workers.  The trajectory loop does
 * almost all the work (compiling 8 instances is a few percent), so
 * kernel and frame-tracking changes show here and not on compile-dd.
 *
 * A request is one SimulationEngine::runEnsemble estimate with
 * seeds of its own; run.py pools the requests' estimates and
 * compares them with the committed reference.
 */

#include "bench_common.hh"
#include "device/backend.hh"
#include "passes/pipeline.hh"
#include "report.hh"

namespace casqbench {

using namespace casq;

namespace {

constexpr std::size_t kQubits = 8;
constexpr int kDepth = 16;
constexpr int kInstances = 8;
constexpr int kTrajectories = 256;
constexpr int kWorkers = 2;
constexpr std::uint64_t kBackendSeed = 7;
constexpr int kSetupRepeats = 5;
constexpr int kTracedRequests = 3;

struct Prepared
{
    Backend backend;
    LayeredCircuit logical;
    PassManager pipeline;
    std::vector<PauliString> observables;
    SimulationEngine engine;
    EnsembleRunOptions options;
    std::uint64_t seed;

    explicit Prepared(std::uint64_t runSeed)
        : backend(makeFakeLinear(kQubits, kBackendSeed)),
          logical(bench::syntheticChainWorkload(kQubits, kDepth,
                                                /*idle_layers=*/true)),
          pipeline(buildPipeline(Strategy::CaDd)),
          engine(backend, NoiseModel::standard()), seed(runSeed)
    {
        for (std::uint32_t q = 0; q < kQubits; ++q)
            observables.push_back(
                PauliString::single(kQubits, q, PauliOp::Z));
        options.instances = kInstances;
        options.trajectories = kTrajectories;
        options.threads = kWorkers;
        options.backend = SimBackendKind::Dense;
        options.prefixState = PrefixStateMode::Auto;

        // A full-size warm-up estimate on seeds no request uses
        // starts the worker pool and fills the pass caches.
        fusedRequest(~std::uint64_t(0));
    }

    /** Request r draws its compile and trajectory seeds from (seed, r). */
    void
    selectRequest(std::uint64_t r)
    {
        options.compileSeed = deriveSeed(seed, 2 * r);
        options.seed = deriveSeed(seed, 2 * r + 1);
    }

    /**
     * One fused estimate.  The variant cache is dropped afterwards:
     * no later request has the same schedules, and memory stays
     * independent of how many requests fit in the window.
     */
    RunResult
    fusedRequest(std::uint64_t r)
    {
        selectRequest(r);
        RunResult result =
            engine.runEnsemble(logical, pipeline, observables, options);
        engine.clearVariantCache();
        return result;
    }
};

/**
 * Request r through the split path: compileTraced, then runSplit.
 * Adds the compared time (compile and first run) to comparedMs and
 * the request's prefix hits, forks and cache lookups to `sums`.
 */
RunResult
splitRequest(Prepared &p, std::uint64_t r, Tracer &tracer,
             PassLedger &ledger, CircuitCounts &total,
             std::map<std::string, double> &sums,
             std::map<std::string, std::vector<double>> &samples,
             double &comparedMs)
{
    p.selectRequest(r);
    TracedCompile compiled = compileTraced(
        p.pipeline, p.logical, p.backend, ensembleOf(p.options), tracer,
        "estimate" + std::to_string(r), ledger, total,
        samples["compile.instance_ms"]);
    samples["compile.prefix_ms"].push_back(compiled.prefixMs);
    samples["sim.compile_ms"].push_back(compiled.totalMs);
    std::vector<ScheduledCircuit> schedules;
    for (CompilationResult &instance : compiled.instances)
        schedules.push_back(std::move(instance.scheduled));

    const SplitRun run =
        runSplit(p.engine, schedules, p.observables, executionOf(p.options),
                 tracer, "estimate" + std::to_string(r), samples);
    p.engine.clearVariantCache();
    comparedMs += compiled.totalMs + run.firstMs;

    sums["prefix_hits"] += double(compiled.prefixHits);
    sums["forks"] += double(run.result.prefixStateHits);
    sums["cache_hits"] += double(run.cacheHits);
    sums["cache_lookups"] += double(run.cacheLookups);
    return run.result;
}

} // namespace

void
runSimulate(const Args &args, Report &report, Tracer &tracer)
{
    std::unique_ptr<Prepared> prepared;
    for (int i = 0; i < kSetupRepeats; ++i) {
        prepared.reset();
        const double t0 = nowMs();
        prepared = std::make_unique<Prepared>(args.seed);
        report.setupSeconds.push_back((nowMs() - t0) * 1e-3);
    }
    Prepared &p = *prepared;

    if (!args.trace) {
        const double start = nowMs();
        do {
            const double t0 = nowMs();
            RunResult result;
            try {
                result = p.fusedRequest(report.requests);
            } catch (const std::exception &) {
                result = RunResult{};
            }
            const double ms = nowMs() - t0;
            ++report.requests;
            report.latencyMs.push_back(ms);
            report.throughput.push_back(1e3 * result.trajectories / ms);
            if (result.trajectories != kTrajectories ||
                result.means.size() != kQubits)
                ++report.requestFailures;
            else
                report.estimates.push_back(result.means);
        } while (nowMs() - start < args.seconds * 1e3);
        report.peakRssMb = selfPeakRssMb();
        return;
    }

    std::vector<RunResult> fused(kTracedRequests);
    for (int r = 0; r < kTracedRequests; ++r) {
        try {
            fused[r] = p.fusedRequest(r);
        } catch (const std::exception &) {
            ++report.requestFailures;
        }
        report.estimates.push_back(fused[r].means);
    }
    report.requests = kTracedRequests;

    // One pass splits every request; the counts it returns are
    // per instance or per trajectory over the pass.
    auto pass = [&](Tracer &t, PassLedger &ledger,
                    std::map<std::string, double> &counts,
                    std::map<std::string, std::vector<double>> &samples,
                    bool check) {
        CircuitCounts circuit;
        std::map<std::string, double> sums;
        double ms = 0.0;
        for (int r = 0; r < kTracedRequests; ++r) {
            const RunResult split = splitRequest(p, r, t, ledger, circuit,
                                                 sums, samples, ms);
            if (check)
                report.check("simulate-ca-dd: planEnsemble/compileInstance "
                             "+ run is bit-identical to the fused "
                             "runEnsemble (request " + std::to_string(r) +
                                 ")",
                             sameBits(split, fused[r]));
        }
        const double instances = double(kTracedRequests * kInstances);
        counts["circuit.instructions"] =
            double(circuit.instructions) / instances;
        counts["circuit.dd_pulses"] = double(circuit.ddPulses) / instances;
        counts["circuit.caec_compensations"] =
            double(circuit.compensations) / instances;
        counts["compile.prefix_hit_ratio"] = sums["prefix_hits"] / instances;
        counts["sim.prefix_fork_ratio"] =
            sums["forks"] / double(kTracedRequests * kTrajectories);
        counts["sim.variant_cache_hit_ratio"] =
            sums["cache_lookups"] > 0
                ? sums["cache_hits"] / sums["cache_lookups"]
                : 0.0;
        return ms;
    };

    // Tracing overhead: the same pass with the tracer off, before and
    // after the traced passes.
    Tracer off(false);
    auto untracedPass = [&] {
        PassLedger ledger;
        std::map<std::string, double> counts;
        std::map<std::string, std::vector<double>> samples;
        return pass(off, ledger, counts, samples, false);
    };
    report.untracedMs = untracedPass() / 2.0;

    PassLedger ledger[2];
    std::map<std::string, std::vector<double>> samples[2];
    report.windowStartUs = steadyMicros();
    for (int k = 0; k < 2; ++k)
        report.tracedMs += pass(tracer, ledger[k], report.counts[k],
                                samples[k], k == 0) / 2.0;
    report.windowEndUs = steadyMicros();
    report.untracedMs += untracedPass() / 2.0;
    ledger[0].emit(report.layer);
    report.layerSamples = samples[0];
    report.peakRssMb = selfPeakRssMb();
}

} // namespace casqbench
