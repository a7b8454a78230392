/**
 * @file
 * Shared pieces of the casqbench driver: the command line, the raw
 * report every workload fills, and helpers that read the library's
 * outputs (schedule fingerprints, IR counts, pass ledgers, memory).
 *
 * The driver measures and checks; casqbench/run.py turns the raw
 * report into the benchmark's metrics (medians, percentiles, span
 * self time) and prints the result line.
 */

#ifndef CASQBENCH_REPORT_HH
#define CASQBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "passes/pass_manager.hh"
#include "sim/engine.hh"
#include "trace.hh"

namespace casqbench {

/** Parsed driver command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string out;       //!< raw report path
    std::string traceFile; //!< Chrome trace path (traced runs)
    std::string serveBin;  //!< casq_serve executable
    std::string socket;    //!< AF_UNIX path for the daemon
};

/** One output check; a failed check counts toward failed_ratio. */
struct Check
{
    std::string name;
    bool ok = true;
    std::string detail;
};

/** Everything one driver run hands to run.py, as raw samples. */
struct Report
{
    std::vector<double> setupSeconds;
    std::vector<double> latencyMs;  //!< one per timed request
    std::vector<double> throughput; //!< work units/s, per sample
    std::uint64_t requests = 0;
    std::uint64_t requestFailures = 0;
    double peakRssMb = 0.0;
    std::vector<Check> checks;

    /** Per-layer values of a traced run (name -> value). */
    std::map<std::string, double> layer;

    /** Per-layer samples; run.py reports each one's median. */
    std::map<std::string, std::vector<double>> layerSamples;

    /** Schedule fingerprints per configuration (hex). */
    std::map<std::string, std::vector<std::string>> fingerprints;

    /** Per-request <Z_q> means for the committed-reference check. */
    std::vector<std::vector<double>> estimates;

    /** Exact counts of the two traced passes (must agree). */
    std::map<std::string, double> counts[2];

    double untracedMs = 0.0;  //!< the work once with tracing off
    double tracedMs = 0.0;    //!< the same work with tracing on
    double windowStartUs = 0.0; //!< traced window (span clock)
    double windowEndUs = 0.0;
    std::string traceFile;

    void check(const std::string &name, bool ok,
               const std::string &detail = {});

    /** Write the raw JSON object; false on I/O failure. */
    bool write(const std::string &path) const;
};

/** splitmix64 of (seed, k): per-request seeds from the run seed. */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t k);

/** Milliseconds on the steady clock (span clock / 1000). */
inline double
nowMs()
{
    return steadyMicros() * 1e-3;
}

/**
 * 64-bit identity of a schedule: every instruction field, start
 * and duration, bit for bit.
 */
std::uint64_t scheduleFingerprint(const casq::ScheduledCircuit &circuit);

/** 16-digit lower-case hex of a fingerprint. */
std::string hex64(std::uint64_t value);

/** Exact IR sizes of one compiled instance. */
struct CircuitCounts
{
    std::uint64_t instructions = 0;
    std::uint64_t ddPulses = 0;
    std::uint64_t compensations = 0;

    CircuitCounts &operator+=(const CircuitCounts &other);
};

CircuitCounts countCircuit(const casq::ScheduledCircuit &circuit);

/**
 * Per-pass time ledger.  Prefix passes run once per ensemble and
 * their PassMetric timings are replicated into every instance, so
 * the ledger takes the prefix once per plan and only the passes
 * after the prefix from each instance; ms per instance is the sum
 * over the workload divided by the instances compiled.
 */
class PassLedger
{
  public:
    void addPrefix(const std::vector<casq::PassMetric> &prefix);
    void addInstance(const casq::CompilationResult &instance,
                     std::size_t prefixLength);

    /** pass.<name>.ms for every pass that ran. */
    void emit(std::map<std::string, double> &out) const;

  private:
    std::map<std::string, double> _millis;
    std::uint64_t _instances = 0;
};

/**
 * The planEnsemble and SimulationEngine::run options that split one
 * fused runEnsemble call; the split result is bit-identical to it.
 */
casq::EnsembleOptions ensembleOf(const casq::EnsembleRunOptions &fused);
casq::ExecutionOptions executionOf(const casq::EnsembleRunOptions &fused);

/** One traced planEnsemble + compileInstance pass over an ensemble. */
struct TracedCompile
{
    std::vector<casq::CompilationResult> instances;
    std::uint64_t prefixHits = 0;
    double prefixMs = 0.0; //!< planEnsemble
    double totalMs = 0.0;  //!< planEnsemble and every compileInstance
};

/**
 * Compile an ensemble through planEnsemble and compileInstance with
 * a span around each call (request ids `request` and `request#k`)
 * and around each instance's circuit counts; feeds the ledger, the
 * counts and the per-instance times.
 */
TracedCompile compileTraced(casq::PassManager &pipeline,
                            const casq::LayeredCircuit &logical,
                            const casq::Backend &backend,
                            const casq::EnsembleOptions &options,
                            Tracer &tracer, const std::string &request,
                            PassLedger &ledger, CircuitCounts &counts,
                            std::vector<double> &instanceMs);

/** Outcome of runSplit(). */
struct SplitRun
{
    casq::RunResult result; //!< of the first run
    double firstMs = 0.0;
    std::size_t cacheHits = 0;    //!< variant-cache hits, first run
    std::size_t cacheLookups = 0; //!< variant-cache lookups, first run
};

/**
 * SimulationEngine::run over the schedules (the run compared with
 * the fused path), then a second pair of runs over the same
 * schedules with one trajectory per variant, from a cold and from a
 * warm variant cache.  Their difference is the variant build
 * (sim.variant_build_ms); the first run less the build, per
 * trajectory, is sim.trajectory_us.
 */
SplitRun runSplit(casq::SimulationEngine &engine,
                  const std::vector<casq::ScheduledCircuit> &schedules,
                  const std::vector<casq::PauliString> &observables,
                  const casq::ExecutionOptions &options, Tracer &tracer,
                  const std::string &request,
                  std::map<std::string, std::vector<double>> &samples);

/** Bitwise equality of two estimates (means, stderrs, counts). */
bool sameBits(const casq::RunResult &a, const casq::RunResult &b);

/** This process's resident-set high-water mark, in MB. */
double selfPeakRssMb();

/**
 * Resident-set high-water mark of the largest child process that
 * has been waited for (the job-service daemon), in MB.
 */
double childrenPeakRssMb();

/**
 * The workloads.  Each sets up several times (setupSeconds), runs
 * its timed window (or, traced, the same work once untraced and
 * twice traced), and fills the report; exceptions escape only for
 * failures that leave no result to report.
 */
void runCompileDd(const Args &args, Report &report, Tracer &tracer);
void runSimulate(const Args &args, Report &report, Tracer &tracer);
void runServiceJobs(const Args &args, Report &report, Tracer &tracer);

} // namespace casqbench

#endif // CASQBENCH_REPORT_HH
