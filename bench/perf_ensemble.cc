/**
 * @file
 * Ensemble-compilation throughput: serial vs. parallel vs.
 * prefix-cached (PassManager::runEnsemble).
 *
 * Three workload families bound the design space:
 *
 *  - "late-twirl": the paper's dominant workload, a Pauli-twirled
 *    CA-DD pipeline.  The stock pipeline compiles the twirl-plan +
 *    flatten prefix once per ensemble, and this bench reports the
 *    cached-vs-uncached compile throughput head to head.
 *
 *  - per-strategy sweep ("<strategy>:late"), uncached vs cached,
 *    plus two native-lowering workloads on a canonical-block chain
 *    ("heisenberg:late" under CA-DD, "caec-native:late" under
 *    CA-EC).  The CA-EC one is a hard gate: its cached ensemble
 *    must compile at least 1.2x faster than compileReference() does
 *    the same instances ("caec-native:reference").
 *
 *  - "late-stochastic": a synthetic pipeline whose only stochastic
 *    pass (a random readout frame) runs LAST, bounding what prefix
 *    caching can ever save (flatten + schedule + ca-dd all cached).
 *
 * Every configuration of a stock pipeline is byte-compared against
 * compileReference() (the seed's composition, pipeline.hh) before
 * its timing is reported, so the timing run doubles as the
 * pipeline-vs-reference equivalence gate.
 *
 * Use --json FILE to append the numbers to the BENCH_*.json
 * trajectory; every sample also carries its per-pass ledger as
 * pass.<name>.ms fields (milliseconds per instance).
 *
 *   $ ./perf_ensemble --instances 100 --threads-list 1,2,4,8
 *   $ ./perf_ensemble --json BENCH_perf_ensemble.json
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "passes/builtin.hh"
#include "passes/pipeline.hh"

using namespace casq;

namespace {

struct PerfOptions
{
    int instances = 100;
    std::size_t qubits = 12;
    int depth = 24;
    std::uint64_t seed = 2024;
    std::vector<unsigned> threadsList{1, 2, 4, 8};
    std::string jsonPath;
};

/**
 * Stochastic scheduled-stage pass: applies a uniformly random
 * Pauli readout frame (tagged like a twirl gate) to every qubit
 * after the last scheduled instruction.  Deliberately cheap -- it
 * stands in for any randomization that happens after the expensive
 * deterministic lowering, which is exactly when the prefix cache
 * pays off.
 */
class RandomFramePass : public Pass
{
  public:
    std::string name() const override { return "random-frame"; }
    bool isStochastic() const override { return true; }

    void
    run(PassContext &context) override
    {
        static const Op paulis[] = {Op::I, Op::X, Op::Y, Op::Z};
        const double start = context.scheduled().totalDuration();
        const double duration =
            context.backend().durations().oneQubit;
        ScheduledCircuit &schedule = context.mutableScheduled();
        for (std::uint32_t q = 0; q < schedule.numQubits(); ++q) {
            const Op op = paulis[context.rng().uniformInt(4)];
            if (op == Op::I)
                continue;
            Instruction inst(op, {q});
            inst.tag = InstTag::Twirl;
            schedule.add(TimedInstruction{inst, start, duration});
        }
    }
};

/**
 * Canonical-block chain (the paper's Heisenberg workload shape,
 * Fig. 7): under --native lowering every can block resynthesizes
 * into its 3-CX fragment, which is exactly the per-instance cost
 * the late-twirl prefix removes.
 */
LayeredCircuit
canChainWorkload(std::size_t n, int depth)
{
    LayeredCircuit circuit(n, 0);
    for (int d = 0; d < depth; ++d) {
        Layer gates{LayerKind::TwoQubit, {}};
        const std::uint32_t offset = (d % 2) ? 1 : 0;
        for (std::uint32_t q = offset; q + 1 < n; q += 2)
            gates.insts.emplace_back(
                Op::Can, std::vector<std::uint32_t>{q, q + 1},
                std::vector<double>{0.3, 0.2, 0.1});
        circuit.addLayer(std::move(gates));
        Layer idle{LayerKind::OneQubit, {}};
        for (std::uint32_t q = 0; q < n; ++q)
            idle.insts.emplace_back(
                Op::Delay, std::vector<std::uint32_t>{q},
                std::vector<double>{600.0});
        circuit.addLayer(std::move(idle));
    }
    return circuit;
}

/** One measured configuration. */
struct Sample
{
    std::string workload;
    unsigned threads = 1;
    bool cached = false;
    double wallMillis = 0.0;
    std::size_t prefixLength = 0;
    std::size_t prefixHits = 0;
    int instances = 0;

    /** Milliseconds per instance in each pass, pipeline order. */
    std::vector<PassMetric> passMillis;

    double
    instancesPerSecond() const
    {
        return wallMillis > 0.0
                   ? 1e3 * double(instances) / wallMillis
                   : 0.0;
    }
};

void
usage(const char *prog)
{
    std::cout
        << "usage: " << prog << " [options]\n"
        << "  --instances N     ensemble size (default 100)\n"
        << "  --qubits N        chain length (default 12)\n"
        << "  --depth D         layer pairs (default 24)\n"
        << "  --seed S          master seed (default 2024)\n"
        << "  --threads-list L  comma-separated thread counts\n"
        << "                    (default 1,2,4,8)\n"
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
        } else if (const char *v = value("--instances")) {
            options.instances = int(bench::checkedInt(
                "--instances", v, 1,
                std::numeric_limits<int>::max()));
        } else if (const char *v = value("--qubits")) {
            options.qubits = std::size_t(
                bench::checkedInt("--qubits", v, 1, 1 << 20));
        } else if (const char *v = value("--depth")) {
            options.depth = int(bench::checkedInt(
                "--depth", v, 0,
                std::numeric_limits<int>::max()));
        } else if (const char *v = value("--seed")) {
            options.seed = bench::checkedUInt64("--seed", v);
        } else if (const char *v = value("--threads-list")) {
            options.threadsList.clear();
            for (long long t : bench::checkedIntList(
                     "--threads-list", v, 0, 4096))
                options.threadsList.push_back(unsigned(t));
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

/**
 * The per-pass ledger of one ensemble, in milliseconds per instance:
 * a cached prefix pass counts its one run, every other pass its run
 * in each instance (the casqbench pass.<name>.ms accounting).
 */
std::vector<PassMetric>
passMillis(const EnsembleResult &result)
{
    if (result.instances.empty())
        return {};
    std::vector<PassMetric> ledger = result.prefixMetrics;
    const std::vector<PassMetric> &passes =
        result.instances.front().metrics;
    for (std::size_t i = result.prefixLength; i < passes.size(); ++i)
        ledger.push_back(PassMetric{passes[i].name, 0.0});
    for (const CompilationResult &instance : result.instances)
        for (std::size_t i = result.prefixLength;
             i < instance.metrics.size(); ++i)
            ledger[i].millis += instance.metrics[i].millis;
    for (PassMetric &metric : ledger)
        metric.millis /= double(result.instances.size());
    return ledger;
}

Sample
sampleOf(const std::string &workload, const EnsembleResult &result,
         unsigned threads)
{
    Sample sample;
    sample.workload = workload;
    sample.threads = threads;
    // Record whether caching actually happened, not whether it was
    // requested: a pipeline with no deterministic prefix bypasses
    // the cache.
    sample.cached = result.prefixLength > 0;
    sample.wallMillis = result.wallMillis;
    sample.prefixLength = result.prefixLength;
    sample.prefixHits = result.prefixHits;
    sample.instances = int(result.instances.size());
    sample.passMillis = passMillis(result);
    return sample;
}

/** Schedules of one configuration, for byte-identity checks. */
std::vector<std::string>
fingerprints(const EnsembleResult &result)
{
    std::vector<std::string> prints;
    prints.reserve(result.instances.size());
    for (const CompilationResult &instance : result.instances)
        prints.push_back(instance.scheduled.toString());
    return prints;
}

/**
 * Serial compileReference() over the ensemble, instance k seeded
 * (seed, k + 7001) exactly as PassManager::runEnsemble() seeds it,
 * all instances sharing one TwirlTableCache the way one pipeline
 * shares its cache.  Stores the schedules' fingerprints in `prints`
 * and returns the timing (compilation only) as an uncached sample.
 */
Sample
measureReference(const std::string &workload,
                 const LayeredCircuit &logical,
                 const Backend &backend,
                 const CompileOptions &options,
                 const EnsembleOptions &ensemble,
                 std::vector<std::string> &prints)
{
    TwirlTableCache tables;
    std::vector<ScheduledCircuit> schedules;
    schedules.reserve(std::size_t(ensemble.instances));
    const Rng master(ensemble.seed);
    const auto begin = std::chrono::steady_clock::now();
    for (int k = 0; k < ensemble.instances; ++k) {
        Rng rng = master.derive(std::uint64_t(k) + 7001);
        schedules.push_back(compileReference(logical, backend,
                                             options, rng, &tables));
    }
    Sample sample;
    sample.workload = workload;
    sample.wallMillis = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - begin)
                            .count();
    sample.instances = ensemble.instances;
    prints.clear();
    for (const ScheduledCircuit &schedule : schedules)
        prints.push_back(schedule.toString());
    return sample;
}

Sample
measure(const std::string &workload, PassManager &pipeline,
        const LayeredCircuit &logical, const Backend &backend,
        const EnsembleOptions &ensemble,
        const std::vector<std::string> &expected)
{
    EnsembleResult result =
        pipeline.runEnsemble(logical, backend, ensemble);
    const auto actual = fingerprints(result);
    if (actual != expected) {
        std::cerr << "FAIL: " << workload << " threads="
                  << ensemble.threads << " cached="
                  << ensemble.prefixCache
                  << " diverged from compileReference()\n";
        std::exit(1);
    }
    return sampleOf(workload, result, ensemble.threads);
}

void
report(const std::vector<Sample> &samples, double serial_ms)
{
    std::cout << std::left << std::setw(16) << "workload"
              << std::right << std::setw(8) << "threads"
              << std::setw(8) << "cached" << std::setw(12)
              << "wall ms" << std::setw(12) << "inst/s"
              << std::setw(10) << "speedup" << "\n";
    for (const Sample &s : samples)
        std::cout << std::left << std::setw(16) << s.workload
                  << std::right << std::setw(8) << s.threads
                  << std::setw(8) << (s.cached ? "yes" : "no")
                  << std::setw(12) << std::fixed
                  << std::setprecision(2) << s.wallMillis
                  << std::setw(12) << std::setprecision(1)
                  << s.instancesPerSecond() << std::setw(10)
                  << std::setprecision(2)
                  << (s.wallMillis > 0.0 ? serial_ms / s.wallMillis
                                         : 0.0)
                  << "\n";
    std::cout << "\n";
}

void
writeJson(const std::string &path,
          const std::vector<Sample> &samples,
          const PerfOptions &options)
{
    bench::BenchJsonWriter json("perf_ensemble");
    json.meta()
        .add("qubits", options.qubits)
        .add("depth", options.depth)
        .add("instances", options.instances);
    for (const Sample &s : samples) {
        bench::JsonFields &sample =
            json.newSample()
                .add("workload", s.workload)
                .add("threads", s.threads)
                .add("cached", s.cached)
                .add("prefix_length", s.prefixLength)
                .add("wall_ms", s.wallMillis, 3)
                .add("instances_per_s", s.instancesPerSecond(), 1);
        for (const PassMetric &metric : s.passMillis)
            sample.add("pass." + metric.name + ".ms", metric.millis,
                       4);
    }
    json.write(path);
}

} // namespace

int
main(int argc, char **argv)
{
    const PerfOptions options = parse(argc, argv);
    const Backend backend = makeFakeLinear(options.qubits, 7);
    const LayeredCircuit logical = bench::syntheticChainWorkload(
        options.qubits, options.depth, /*idle_layers=*/true);

    std::vector<Sample> all;

    EnsembleOptions ensemble;
    ensemble.instances = options.instances;
    ensemble.seed = options.seed;
    std::vector<std::string> expected;

    // ------------------------------------------------ twirled CA-DD
    // The paper's Figs. 3-10 workload shape: the serial uncached
    // run, then the cached prefix on every thread count.
    {
        CompileOptions cadd;
        cadd.strategy = Strategy::CaDd;
        PassManager pipeline = buildPipeline(cadd);
        measureReference("late-twirl", logical, backend, cadd,
                         ensemble, expected);

        std::vector<Sample> samples;
        ensemble.threads = 1;
        for (bool cached : {false, true}) {
            ensemble.prefixCache = cached;
            all.push_back(measure("late-twirl", pipeline, logical,
                                  backend, ensemble, expected));
            samples.push_back(all.back());
        }
        ensemble.prefixCache = true;
        for (unsigned threads : options.threadsList) {
            if (threads <= 1)
                continue;
            ensemble.threads = threads;
            all.push_back(measure("late-twirl", pipeline, logical,
                                  backend, ensemble, expected));
            samples.push_back(all.back());
        }
        report(samples, samples.front().wallMillis);
    }

    // ------------------------------------- every stock strategy
    // Uncached vs cached, serial, per strategy.  Every strategy --
    // the CA-EC ones included -- must actually engage the prefix
    // cache; a zero prefix-hit count here means a pipeline silently
    // fell back to per-instance lowering.
    ensemble.threads = 1;
    for (Strategy strategy : allStrategies()) {
        CompileOptions stock;
        stock.strategy = strategy;
        PassManager pipeline = buildPipeline(stock);
        const std::string workload = strategyName(strategy) + ":late";
        measureReference(workload, logical, backend, stock, ensemble,
                         expected);

        std::vector<Sample> samples;
        for (bool cached : {false, true}) {
            ensemble.prefixCache = cached;
            all.push_back(measure(workload, pipeline, logical,
                                  backend, ensemble, expected));
            samples.push_back(all.back());
        }
        if (all.back().prefixHits == 0) {
            std::cerr << "FAIL: " << workload
                      << " compiled without any prefix-cache hit\n";
            std::exit(1);
        }
        report(samples, samples.front().wallMillis);
    }

    // --------------------------------- heisenberg, native lowering
    // Canonical blocks under --native: every can block resynthesizes
    // into its 3-CX fragment, which the cached prefix pays once.
    const LayeredCircuit can_chain =
        canChainWorkload(options.qubits, options.depth / 2);
    {
        CompileOptions native;
        native.strategy = Strategy::CaDd;
        native.lowerToNative = true;
        PassManager pipeline = buildPipeline(native);
        measureReference("heisenberg:reference", can_chain, backend,
                         native, ensemble, expected);

        std::vector<Sample> samples;
        for (bool cached : {false, true}) {
            ensemble.prefixCache = cached;
            all.push_back(measure("heisenberg:late", pipeline,
                                  can_chain, backend, ensemble,
                                  expected));
            samples.push_back(all.back());
        }
        report(samples, samples.front().wallMillis);
    }

    // --------------------- paper CA-EC workload, scheduled walk
    // The canonical-block chain under the plain CA-EC strategy with
    // native lowering: the workload of the paper's compensation
    // study (Figs. 7-8).  compileReference() twirls, runs the
    // layered walk and transpiles the whole stream per instance;
    // the cached pipeline compiles flatten + transpile + the
    // blueprint once, then only re-lowers the layers it absorbs
    // angles into.  The cached speedup over the reference is a hard
    // gate.
    {
        CompileOptions caec;
        caec.strategy = Strategy::Ec;
        caec.lowerToNative = true;
        PassManager pipeline = buildPipeline(caec);
        all.push_back(measureReference("caec-native:reference",
                                       can_chain, backend, caec,
                                       ensemble, expected));
        const Sample reference = all.back();

        std::vector<Sample> samples{reference};
        for (bool cached : {false, true}) {
            ensemble.prefixCache = cached;
            all.push_back(measure("caec-native:late", pipeline,
                                  can_chain, backend, ensemble,
                                  expected));
            samples.push_back(all.back());
        }
        report(samples, reference.wallMillis);

        const Sample &cached = all.back();
        if (cached.prefixHits == 0) {
            std::cerr << "FAIL: caec-native:late compiled without"
                         " any prefix-cache hit\n";
            std::exit(1);
        }
        const double speedup =
            cached.wallMillis > 0.0
                ? reference.wallMillis / cached.wallMillis
                : 0.0;
        if (speedup < 1.2) {
            std::cerr << "FAIL: caec-native cached speedup "
                      << std::fixed << std::setprecision(2)
                      << speedup << "x over compileReference() below"
                      << " the 1.2x gate\n";
            std::exit(1);
        }
    }

    // ------------------------------------------- late stochastic
    // Deterministic flatten + schedule + ca-dd prefix, stochastic
    // readout frame last: the prefix compiles once per ensemble.
    PassManager late;
    late.emplace<FlattenPass>();
    late.emplace<SchedulePass>();
    late.emplace<CaDdPass>();
    late.emplace<RandomFramePass>();

    ensemble.threads = 1;
    ensemble.prefixCache = false;
    EnsembleResult late_serial =
        late.runEnsemble(logical, backend, ensemble);
    const auto late_expected = fingerprints(late_serial);
    const Sample late_sample =
        sampleOf("late-stochastic", late_serial, ensemble.threads);
    all.push_back(late_sample);

    std::vector<Sample> late_samples{late_sample};
    ensemble.prefixCache = true;
    for (unsigned threads : options.threadsList) {
        ensemble.threads = threads;
        all.push_back(measure("late-stochastic", late, logical,
                              backend, ensemble, late_expected));
        late_samples.push_back(all.back());
    }
    report(late_samples, late_sample.wallMillis);

    if (!options.jsonPath.empty())
        writeJson(options.jsonPath, all, options);
    return 0;
}
