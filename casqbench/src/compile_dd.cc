/**
 * @file
 * compile-dd: ensemble compilation only.
 *
 * The idle-heavy chain (delay layers, depth 16) at 8 and 32 qubits
 * under ca-dd, dd-aligned and ca-ec+dd, plus a 12-qubit ca-ec slice
 * lowered to the native gate set.  Nothing is simulated in the timed
 * window, so the passes do all the work; the two widths expose the
 * DD passes' super-linear scans and the native slice keeps transpile,
 * ca-ec and the TranspileCache on a measured path.
 *
 * A request is one round: a PassManager::runEnsemble call (2
 * instances, one thread) for each of the seven configurations.  The
 * round, not one ensemble, is the unit of latency because the seven
 * ensembles differ in cost by two orders of magnitude.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "bench_common.hh"
#include "device/backend.hh"
#include "passes/pipeline.hh"
#include "report.hh"

namespace casqbench {

using namespace casq;

namespace {

constexpr int kDepth = 16;
constexpr int kInstances = 2;
constexpr std::uint64_t kBackendSeed = 7;
constexpr int kSetupRepeats = 5;

struct Config
{
    const char *label;
    std::size_t qubits;
    Strategy strategy;
    bool native;
};

const Config kConfigs[] = {
    {"ca-dd/8q", 8, Strategy::CaDd, false},
    {"dd-aligned/8q", 8, Strategy::DdAligned, false},
    {"ca-ec+dd/8q", 8, Strategy::Combined, false},
    {"ca-dd/32q", 32, Strategy::CaDd, false},
    {"dd-aligned/32q", 32, Strategy::DdAligned, false},
    {"ca-ec+dd/32q", 32, Strategy::Combined, false},
    {"ca-ec-native/12q", 12, Strategy::Ec, true},
};

/** One configuration, ready to compile (plans borrow all three). */
struct Prepared
{
    const Config *config;
    Backend backend;
    LayeredCircuit logical;
    PassManager pipeline;
    std::uint64_t compileSeed;
};

std::vector<std::unique_ptr<Prepared>>
prepare(std::uint64_t seed)
{
    std::vector<std::unique_ptr<Prepared>> out;
    for (std::size_t c = 0; c < std::size(kConfigs); ++c) {
        const Config &config = kConfigs[c];
        CompileOptions options;
        options.strategy = config.strategy;
        options.lowerToNative = config.native;
        out.push_back(std::make_unique<Prepared>(Prepared{
            &config, makeFakeLinear(config.qubits, kBackendSeed),
            bench::syntheticChainWorkload(config.qubits, kDepth,
                                          /*idle_layers=*/true),
            buildPipeline(options), deriveSeed(seed, c)}));
    }
    // Warm the pass caches (twirl tables, transpile fragments).
    for (auto &p : out) {
        EnsembleOptions warm;
        warm.instances = 1;
        warm.seed = p->compileSeed;
        p->pipeline.runEnsemble(p->logical, p->backend, warm);
    }
    return out;
}

EnsembleOptions
ensembleOptions(const Prepared &p, bool prefixCache = true)
{
    EnsembleOptions options;
    options.instances = kInstances;
    options.seed = p.compileSeed;
    options.threads = 1;
    options.prefixCache = prefixCache;
    return options;
}

std::vector<std::uint64_t>
fingerprints(const std::vector<CompilationResult> &instances)
{
    std::vector<std::uint64_t> out;
    for (const CompilationResult &r : instances)
        out.push_back(scheduleFingerprint(r.scheduled));
    return out;
}

std::vector<double>
noiselessZ(const Backend &backend, const ScheduledCircuit &circuit,
           SimBackendKind kind)
{
    const std::size_t n = circuit.numQubits();
    std::vector<PauliString> observables;
    for (std::uint32_t q = 0; q < n; ++q)
        observables.push_back(PauliString::single(n, q, PauliOp::Z));
    SimulationEngine engine(backend, NoiseModel::ideal());
    ExecutionOptions options;
    options.trajectories = 1;
    options.threads = 1;
    options.backend = kind;
    options.cacheVariants = false;
    return engine.run(circuit, observables, options).means;
}

/**
 * Output checks on one round's schedules (outside the timed window):
 * a recompile with the prefix cache off gives the same fingerprints,
 * and for the DD-only strategies a noiseless run of every compiled
 * schedule reproduces the logical circuit's <Z_q> to 1e-9 (dense at
 * 8 qubits; the 32-qubit chain is Clifford and runs on the tableau,
 * since a dense 32-qubit state does not fit in memory).
 */
void
checkRound(Report &report,
           const std::vector<std::unique_ptr<Prepared>> &prepared,
           const std::vector<std::vector<CompilationResult>> &round)
{
    for (std::size_t c = 0; c < prepared.size(); ++c) {
        Prepared &p = *prepared[c];
        const std::string label = p.config->label;
        const auto uncached = p.pipeline.runEnsemble(
            p.logical, p.backend, ensembleOptions(p, false));
        report.check("compile-dd: prefix-cache-off recompile " + label,
                     fingerprints(uncached.instances) ==
                         fingerprints(round[c]));

        if (p.config->strategy != Strategy::CaDd &&
            p.config->strategy != Strategy::DdAligned)
            continue;
        const SimBackendKind kind = p.config->qubits <= 12
                                        ? SimBackendKind::Dense
                                        : SimBackendKind::Stabilizer;
        CompileOptions plain;
        plain.twirl = false;
        Rng rng(0);
        const ScheduledCircuit logical =
            compileCircuit(p.logical, p.backend, plain, rng);
        const std::vector<double> want =
            noiselessZ(p.backend, logical, kind);
        double worst = 0.0;
        for (const CompilationResult &r : round[c]) {
            const std::vector<double> got =
                noiselessZ(p.backend, r.scheduled, kind);
            for (std::size_t q = 0; q < want.size(); ++q)
                worst = std::max(worst, std::abs(got.at(q) - want[q]));
        }
        report.check("compile-dd: noiseless <Z_q> " + label,
                     worst <= 1e-9,
                     "max |delta| " + std::to_string(worst));
    }
}

/**
 * One round (one request): runEnsemble for every configuration,
 * timed one by one.  Returns each configuration's fingerprints; an
 * ensemble that threw leaves an empty list, which no expected list
 * equals.
 */
std::vector<std::vector<std::uint64_t>>
runRound(std::vector<std::unique_ptr<Prepared>> &prepared,
         std::vector<std::vector<CompilationResult>> &out,
         std::vector<double> &latencies, std::uint64_t &instances)
{
    std::vector<std::vector<std::uint64_t>> prints(prepared.size());
    out.assign(prepared.size(), {});
    for (std::size_t c = 0; c < prepared.size(); ++c) {
        Prepared &p = *prepared[c];
        const double t0 = nowMs();
        EnsembleResult result;
        try {
            result = p.pipeline.runEnsemble(p.logical, p.backend,
                                            ensembleOptions(p));
        } catch (const std::exception &) {
            result.instances.clear();
        }
        latencies.push_back(nowMs() - t0);
        instances += result.instances.size();
        out[c] = std::move(result.instances);
        prints[c] = fingerprints(out[c]);
    }
    return prints;
}

/** One round, every configuration through compileTraced. */
std::vector<std::vector<CompilationResult>>
tracedRound(std::vector<std::unique_ptr<Prepared>> &prepared,
            Tracer &tracer, PassLedger &ledger,
            std::map<std::string, double> &counts,
            std::map<std::string, std::vector<double>> &samples)
{
    std::vector<std::vector<CompilationResult>> out;
    CircuitCounts total;
    std::uint64_t hits = 0, instances = 0;
    for (auto &p : prepared) {
        TracedCompile compiled = compileTraced(
            p->pipeline, p->logical, p->backend, ensembleOptions(*p),
            tracer, p->config->label, ledger, total,
            samples["compile.instance_ms"]);
        samples["compile.prefix_ms"].push_back(compiled.prefixMs);
        hits += compiled.prefixHits;
        instances += compiled.instances.size();
        out.push_back(std::move(compiled.instances));
    }
    const double n = double(instances);
    counts["circuit.instructions"] = double(total.instructions) / n;
    counts["circuit.dd_pulses"] = double(total.ddPulses) / n;
    counts["circuit.caec_compensations"] = double(total.compensations) / n;
    counts["compile.prefix_hit_ratio"] = double(hits) / n;
    return out;
}

void
recordFingerprints(Report &report,
                   const std::vector<std::unique_ptr<Prepared>> &prepared,
                   const std::vector<std::vector<CompilationResult>> &round)
{
    for (std::size_t c = 0; c < prepared.size(); ++c)
        for (std::uint64_t f : fingerprints(round[c]))
            report.fingerprints[prepared[c]->config->label].push_back(
                hex64(f));
}

} // namespace

void
runCompileDd(const Args &args, Report &report, Tracer &tracer)
{
    std::vector<std::unique_ptr<Prepared>> prepared;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const double t0 = nowMs();
        prepared = prepare(args.seed);
        report.setupSeconds.push_back((nowMs() - t0) * 1e-3);
    }

    std::vector<std::vector<CompilationResult>> first, round;
    if (!args.trace) {
        // Every round compiles the same instances; a round whose
        // schedules differ from the first round's has failed (the
        // first round itself is checked after the window).
        std::vector<std::vector<std::uint64_t>> expected;
        const double start = nowMs();
        do {
            std::vector<double> latencies;
            std::uint64_t instances = 0;
            const auto prints =
                runRound(prepared, round, latencies, instances);
            double roundMs = 0.0;
            for (double ms : latencies)
                roundMs += ms;
            report.latencyMs.push_back(roundMs);
            report.throughput.push_back(1e3 * double(instances) / roundMs);
            ++report.requests;
            if (expected.empty()) {
                expected = prints;
                first = std::move(round);
            }
            bool ok = true;
            for (std::size_t c = 0; c < prints.size(); ++c)
                ok = ok && !prints[c].empty() && prints[c] == expected[c];
            if (!ok)
                ++report.requestFailures;
        } while (nowMs() - start < args.seconds * 1e3);
        report.peakRssMb = selfPeakRssMb();
    } else {
        std::vector<double> latencies;
        std::uint64_t instances = 0;
        const auto prints = runRound(prepared, first, latencies, instances);
        report.requests = 1;
        for (const auto &p : prints)
            if (p.empty()) {
                report.requestFailures = 1;
                break;
            }

        // Tracing overhead: the same rounds with the tracer off,
        // before and after the traced ones.
        Tracer off(false);
        auto untracedRound = [&] {
            PassLedger ledger;
            std::map<std::string, double> counts;
            std::map<std::string, std::vector<double>> samples;
            const double t0 = nowMs();
            tracedRound(prepared, off, ledger, counts, samples);
            return nowMs() - t0;
        };
        report.untracedMs = untracedRound() / 2.0;

        PassLedger ledgers[2];
        std::map<std::string, std::vector<double>> samples[2];
        std::vector<std::vector<CompilationResult>> traced[2];
        report.windowStartUs = steadyMicros();
        for (int pass = 0; pass < 2; ++pass) {
            const double t0 = nowMs();
            traced[pass] = tracedRound(prepared, tracer, ledgers[pass],
                                       report.counts[pass], samples[pass]);
            report.tracedMs += (nowMs() - t0) / 2.0;
        }
        report.windowEndUs = steadyMicros();
        report.untracedMs += untracedRound() / 2.0;

        for (int pass = 0; pass < 2; ++pass) {
            bool same = true;
            for (std::size_t c = 0; c < prepared.size(); ++c)
                same = same && fingerprints(traced[pass][c]) == prints[c];
            report.check("compile-dd: planEnsemble/compileInstance "
                         "matches runEnsemble (traced pass " +
                             std::to_string(pass + 1) + ")",
                         same);
        }
        ledgers[0].emit(report.layer);
        report.layerSamples = samples[0];
        report.peakRssMb = selfPeakRssMb();
    }

    recordFingerprints(report, prepared, first);
    checkRound(report, prepared, first);
}

} // namespace casqbench
