#include "report.hh"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>

#include <sys/resource.h>

#include "bench_common.hh"
#include "common/serialize.hh"

namespace casqbench {

using casq::bench::jsonQuote;

void
Report::check(const std::string &name, bool ok,
              const std::string &detail)
{
    checks.push_back({name, ok, detail});
}

namespace {

std::string
number(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
numbers(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + number(values[i]);
    return out + "]";
}

std::string
text(double value)
{
    return number(value);
}

std::string
text(const std::vector<double> &values)
{
    return numbers(values);
}

std::string
text(const std::vector<std::string> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + jsonQuote(values[i]);
    return out + "]";
}

template <typename T>
std::string
object(const std::map<std::string, T> &values)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : values) {
        out += (first ? "" : ",\n  ") + jsonQuote(key) + ": " +
               text(value);
        first = false;
    }
    return out + "}";
}

} // namespace

bool
Report::write(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\n\"setup_s\": " << numbers(setupSeconds)
        << ",\n\"latency_ms\": " << numbers(latencyMs)
        << ",\n\"throughput\": " << numbers(throughput)
        << ",\n\"requests\": " << requests
        << ",\n\"request_failures\": " << requestFailures
        << ",\n\"peak_rss_mb\": " << number(peakRssMb)
        << ",\n\"checks\": [";
    for (std::size_t i = 0; i < checks.size(); ++i)
        out << (i ? ",\n  " : "\n  ") << "{\"name\": "
            << jsonQuote(checks[i].name) << ", \"ok\": "
            << (checks[i].ok ? "true" : "false") << ", \"detail\": "
            << jsonQuote(checks[i].detail) << "}";
    out << "],\n\"layer\": " << object(layer)
        << ",\n\"layer_samples\": " << object(layerSamples)
        << ",\n\"fingerprints\": " << object(fingerprints)
        << ",\n\"estimates\": [";
    for (std::size_t i = 0; i < estimates.size(); ++i)
        out << (i ? ",\n  " : "\n  ") << numbers(estimates[i]);
    out << "]"
        << ",\n\"counts\": [" << object(counts[0]) << ", "
        << object(counts[1]) << "]"
        << ",\n\"untraced_ms\": " << number(untracedMs)
        << ",\n\"traced_ms\": " << number(tracedMs)
        << ",\n\"window_us\": [" << number(windowStartUs) << ", "
        << number(windowEndUs) << "]"
        << ",\n\"trace_file\": " << jsonQuote(traceFile) << "\n}\n";
    out.flush();
    return bool(out);
}

std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t k)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + k + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

std::uint64_t
scheduleFingerprint(const casq::ScheduledCircuit &circuit)
{
    casq::ByteWriter w;
    w.u64(circuit.numQubits());
    w.u64(circuit.numClbits());
    for (const casq::TimedInstruction &timed : circuit.instructions()) {
        const casq::Instruction &inst = timed.inst;
        w.u8(std::uint8_t(inst.op));
        w.u8(std::uint8_t(inst.tag));
        w.u32(std::uint32_t(inst.qubits.size()));
        for (std::uint32_t q : inst.qubits)
            w.u32(q);
        w.u32(std::uint32_t(inst.params.size()));
        for (double p : inst.params)
            w.f64(p);
        w.i32(inst.cbit);
        w.i32(inst.condBit);
        w.i32(inst.condValue);
        w.f64(timed.start);
        w.f64(timed.duration);
    }
    return casq::fingerprintBytes(w.bytes());
}

std::string
hex64(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

CircuitCounts &
CircuitCounts::operator+=(const CircuitCounts &other)
{
    instructions += other.instructions;
    ddPulses += other.ddPulses;
    compensations += other.compensations;
    return *this;
}

CircuitCounts
countCircuit(const casq::ScheduledCircuit &circuit)
{
    CircuitCounts counts;
    for (const casq::TimedInstruction &timed : circuit.instructions()) {
        ++counts.instructions;
        if (timed.inst.tag == casq::InstTag::DD)
            ++counts.ddPulses;
        else if (timed.inst.tag == casq::InstTag::Compensation)
            ++counts.compensations;
    }
    return counts;
}

void
PassLedger::addPrefix(const std::vector<casq::PassMetric> &prefix)
{
    for (const casq::PassMetric &metric : prefix)
        _millis[metric.name] += metric.millis;
}

void
PassLedger::addInstance(const casq::CompilationResult &instance,
                        std::size_t prefixLength)
{
    for (std::size_t i = prefixLength; i < instance.metrics.size();
         ++i)
        _millis[instance.metrics[i].name] += instance.metrics[i].millis;
    ++_instances;
}

void
PassLedger::emit(std::map<std::string, double> &out) const
{
    for (const auto &[name, total] : _millis)
        out["pass." + name + ".ms"] =
            _instances ? total / double(_instances) : 0.0;
}

casq::EnsembleOptions
ensembleOf(const casq::EnsembleRunOptions &fused)
{
    casq::EnsembleOptions options;
    options.instances = fused.instances;
    options.seed = fused.compileSeed;
    options.prefixCache = fused.prefixCache;
    return options;
}

casq::ExecutionOptions
executionOf(const casq::EnsembleRunOptions &fused)
{
    casq::ExecutionOptions options;
    options.trajectories = fused.trajectories;
    options.seed = fused.seed;
    options.threads = fused.threads;
    options.cacheVariants = fused.cacheVariants;
    options.backend = fused.backend;
    options.prefixState = fused.prefixState;
    return options;
}

TracedCompile
compileTraced(casq::PassManager &pipeline,
              const casq::LayeredCircuit &logical,
              const casq::Backend &backend,
              const casq::EnsembleOptions &options, Tracer &tracer,
              const std::string &request, PassLedger &ledger,
              CircuitCounts &counts, std::vector<double> &instanceMs)
{
    TracedCompile out;
    const double t0 = nowMs();
    std::optional<casq::EnsemblePlan> plan;
    {
        Tracer::Scope span(tracer, "passes", "planEnsemble", request);
        plan.emplace(pipeline.planEnsemble(logical, backend, options));
    }
    out.prefixMs = nowMs() - t0;
    ledger.addPrefix(plan->prefixMetrics());
    for (int k = 0; k < plan->instanceCount(); ++k) {
        const std::string id = request + "#" + std::to_string(k);
        const double s0 = nowMs();
        {
            Tracer::Scope span(tracer, "passes", "compileInstance", id);
            out.instances.push_back(plan->compileInstance(std::size_t(k)));
        }
        instanceMs.push_back(nowMs() - s0);
        ledger.addInstance(out.instances.back(), plan->prefixLength());
        Tracer::Scope span(tracer, "circuit", "instructions", id);
        counts += countCircuit(out.instances.back().scheduled);
    }
    out.prefixHits = plan->prefixHits();
    out.totalMs = nowMs() - t0;
    return out;
}

SplitRun
runSplit(casq::SimulationEngine &engine,
         const std::vector<casq::ScheduledCircuit> &schedules,
         const std::vector<casq::PauliString> &observables,
         const casq::ExecutionOptions &options, Tracer &tracer,
         const std::string &request,
         std::map<std::string, std::vector<double>> &samples)
{
    SplitRun out;
    const std::size_t hits = engine.variantCacheHits();
    const std::size_t misses = engine.variantCacheMisses();
    const double t0 = nowMs();
    {
        Tracer::Scope span(tracer, "sim", "SimulationEngine::run", request);
        out.result = engine.run(schedules, observables, options);
    }
    out.firstMs = nowMs() - t0;
    out.cacheHits = engine.variantCacheHits() - hits;
    out.cacheLookups =
        out.cacheHits + engine.variantCacheMisses() - misses;

    // One trajectory per variant, from a cold and then a warm cache:
    // short runs, so the difference is the build and not noise.
    casq::ExecutionOptions probe = options;
    probe.trajectories = int(schedules.size());
    engine.clearVariantCache();
    double coldMs = 0.0, warmMs = 0.0;
    for (double *ms : {&coldMs, &warmMs}) {
        Tracer::Scope span(tracer, "sim", "SimulationEngine::run (probe)",
                           request);
        const double t1 = nowMs();
        engine.run(schedules, observables, probe);
        *ms = nowMs() - t1;
    }
    const double buildMs = coldMs - warmMs;
    samples["sim.variant_build_ms"].push_back(buildMs);
    samples["sim.trajectory_us"].push_back(
        1e3 * (out.firstMs - buildMs) / double(options.trajectories));
    return out;
}

bool
sameBits(const casq::RunResult &a, const casq::RunResult &b)
{
    auto same = [](const std::vector<double> &x,
                   const std::vector<double> &y) {
        return x.size() == y.size() &&
               (x.empty() || std::memcmp(x.data(), y.data(),
                                         x.size() * sizeof(double)) ==
                                 0);
    };
    return a.trajectories == b.trajectories &&
           same(a.means, b.means) && same(a.stderrs, b.stderrs);
}

double
selfPeakRssMb()
{
    // ru_maxrss is in kilobytes on Linux.
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    if (::getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return double(usage.ru_maxrss) / 1024.0;
}

double
childrenPeakRssMb()
{
    struct rusage usage;
    std::memset(&usage, 0, sizeof(usage));
    if (::getrusage(RUSAGE_CHILDREN, &usage) != 0)
        return 0.0;
    return double(usage.ru_maxrss) / 1024.0;
}

} // namespace casqbench
