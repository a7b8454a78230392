/**
 * @file
 * service-jobs: a closed loop of 2 client connections to a
 * casq_serve daemon (2 in-process slots, 1 engine thread each) over
 * its AF_UNIX protocol.
 *
 * Each client submits a small sweep-point job, waits for its result,
 * then submits the next.  A job is the 5-qubit depth-6 idle chain,
 * 4 instances, 64 trajectories in 4 shards, ca-dd under
 * standard+corr+drift noise, with seeds of its own so no two jobs
 * share work.  Jobs take milliseconds, so queueing, the protocol,
 * the shard codec and the merge are a visible share of latency.
 *
 * Every job's merged result is checked, after the window, against
 * an in-process replay of its shards (encode/decode, executeShard,
 * mergeShards) bit for bit.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.hh"
#include "report.hh"
#include "service/protocol.hh"
#include "service/socket.hh"

namespace casqbench {

using namespace casq;

namespace {

constexpr std::size_t kQubits = 5;
constexpr int kDepth = 6;
constexpr int kInstances = 4;
constexpr int kTrajectories = 64;
constexpr std::uint32_t kShards = 4;
constexpr const char *kNoise = "standard+corr+drift";
constexpr int kClients = 2;
constexpr unsigned kSlots = 2;
constexpr int kSetupRepeats = 5;
constexpr int kTracedJobs = 150;
constexpr unsigned kMaxReplayThreads = 4;

/** A casq_serve child process; killed and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string &binary, const std::string &socket)
        : _socket(socket)
    {
        ::unlink(socket.c_str());
        _pid = ::fork();
        if (_pid < 0)
            throw ServiceError(std::string("fork: ") +
                               std::strerror(errno));
        if (_pid == 0) {
            const int null = ::open("/dev/null", O_WRONLY);
            if (null >= 0) {
                ::dup2(null, 1);
                ::dup2(null, 2);
            }
            const std::string slots = std::to_string(kSlots);
            ::execl(binary.c_str(), "casq_serve", "--socket",
                    socket.c_str(), "--slots", slots.c_str(),
                    "--threads", "1", static_cast<char *>(nullptr));
            _exit(127);
        }
        // Ready once it answers a ping.
        const double deadline = nowMs() + 10e3;
        for (;;) {
            try {
                LocalSocket sock = LocalSocket::connect(socket);
                sock.sendFrame(PingRequest{}.encode());
                const auto reply = sock.recvFrame();
                if (reply && peekMessageType(*reply) ==
                                 MessageType::PingReply)
                    return;
            } catch (const std::exception &) {
            }
            if (nowMs() > deadline) {
                kill();
                throw ServiceError("casq_serve did not answer a ping");
            }
            ::usleep(2000);
        }
    }

    ~Daemon() { kill(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Ask for a clean shutdown; kill it if it does not exit. */
    void
    stop()
    {
        if (_pid <= 0)
            return;
        try {
            LocalSocket sock = LocalSocket::connect(_socket);
            sock.sendFrame(ShutdownRequest{}.encode());
            (void)sock.recvFrame();
        } catch (const std::exception &) {
        }
        const double deadline = nowMs() + 5e3;
        while (nowMs() < deadline) {
            int status = 0;
            if (::waitpid(_pid, &status, WNOHANG) == _pid) {
                _pid = -1;
                return;
            }
            ::usleep(1000);
        }
        kill();
    }

  private:
    std::string _socket;
    pid_t _pid = -1;

    void
    kill()
    {
        if (_pid <= 0)
            return;
        ::kill(_pid, SIGKILL);
        int status = 0;
        while (::waitpid(_pid, &status, 0) < 0 && errno == EINTR) {
        }
        _pid = -1;
    }
};

/** One request/reply on an open connection; ErrorReply rethrows. */
std::vector<std::uint8_t>
roundTrip(LocalSocket &sock, const std::vector<std::uint8_t> &request)
{
    sock.sendFrame(request);
    auto reply = sock.recvFrame();
    if (!reply)
        throw ServiceError("daemon closed the connection");
    if (peekMessageType(*reply) == MessageType::ErrorReply)
        ErrorReply::decode(*reply).raise();
    return std::move(*reply);
}

JobSpec
makeJob(const std::string &id, std::uint64_t seed, std::uint64_t index)
{
    JobSpec job;
    job.id = id;
    ShardSpec &spec = job.work;
    spec.shardCount = kShards;
    spec.logical = bench::syntheticChainWorkload(kQubits, kDepth,
                                                 /*idle_layers=*/true);
    spec.backendQubits = std::uint32_t(kQubits);
    for (std::uint32_t q = 0; q < kQubits; ++q)
        spec.observables.push_back(
            PauliString::single(kQubits, q, PauliOp::Z));
    spec.strategy = "ca-dd";
    spec.noise = noiseModelFromRecipe(kNoise);
    spec.instances = kInstances;
    spec.trajectories = kTrajectories;
    spec.compileSeed = deriveSeed(seed, 2 * index);
    spec.seed = deriveSeed(seed, 2 * index + 1);
    return job;
}

/** A finished job as its client saw it (spec: makeJob(id, seed, index)). */
struct Served
{
    std::string id;
    std::uint64_t index = 0;
    bool ok = false;
    JobProgress progress;
    RunResult result;
    double submitMs = 0.0;
    double latencyMs = 0.0;
};

/**
 * Closed loop: kClients connections, each submitting its next job
 * when the previous result arrives, until `jobs` jobs were handed
 * out or the deadline passed.  Job k gets seeds (seed, k).
 */
std::vector<Served>
closedLoop(const std::string &socket, std::uint64_t seed,
           const std::string &prefix, int jobs, double deadlineMs,
           Tracer &tracer)
{
    std::vector<Served> served;
    std::exception_ptr error;
    std::mutex mutex; // guards served and error
    std::atomic<int> next{0};
    auto client = [&] {
        LocalSocket sock;
        try {
            sock = LocalSocket::connect(socket);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex);
            error = std::current_exception();
            return;
        }
        for (;;) {
            if (nowMs() >= deadlineMs)
                return;
            const int k = next++;
            if (k >= jobs)
                return;
            Served s;
            s.id = prefix + std::to_string(k);
            s.index = std::uint64_t(k);
            const std::vector<std::uint8_t> submit =
                SubmitRequest{makeJob(s.id, seed, s.index)}.encode();
            const double t0 = nowMs();
            try {
                {
                    Tracer::Scope span(tracer, "service", "submit", s.id);
                    SubmitReply::decode(roundTrip(sock, submit));
                }
                s.submitMs = nowMs() - t0;
                ResultReply reply;
                {
                    Tracer::Scope span(tracer, "service", "result", s.id);
                    reply = ResultReply::decode(roundTrip(
                        sock, ResultRequest{s.id, true}.encode()));
                }
                s.ok = reply.job.state == JobState::Done;
                s.progress = std::move(reply.job);
                s.result = std::move(reply.result);
            } catch (const std::exception &) {
                s.ok = false;
            }
            s.latencyMs = nowMs() - t0;
            std::lock_guard<std::mutex> lock(mutex);
            served.push_back(std::move(s));
        }
    };
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back(client);
    for (std::thread &t : clients)
        t.join();
    if (error)
        std::rethrow_exception(error);
    return served;
}

ServiceTotals
stats(const std::string &socket)
{
    LocalSocket sock = LocalSocket::connect(socket);
    return StatsReply::decode(roundTrip(sock, StatsRequest{}.encode()))
        .totals;
}

/** A job's merged shard replay and its payload sizes. */
struct ShardReplay
{
    RunResult merged;
    std::uint64_t specBytes = 0;
    std::uint64_t resultBytes = 0;
};

/**
 * Replay a job's shards in process: each spec through the codec,
 * executeShard, each result through the codec, then mergeShards.
 */
ShardReplay
replayShards(const JobSpec &job, Tracer &tracer,
             std::map<std::string, std::vector<double>> *samples)
{
    ShardReplay out;
    std::vector<ShardResult> results;
    for (std::uint32_t k = 0; k < job.work.shardCount; ++k) {
        ShardSpec spec = job.work;
        spec.shardIndex = k;
        const std::string request = job.id + "/" + std::to_string(k);
        double codecUs = 0.0;
        double t0 = steadyMicros();
        std::vector<std::uint8_t> specBytes;
        {
            Tracer::Scope span(tracer, "shard", "ShardSpec::encode", request);
            specBytes = spec.encode();
        }
        ShardSpec decoded;
        {
            Tracer::Scope span(tracer, "shard", "ShardSpec::decode", request);
            decoded = ShardSpec::decode(specBytes);
        }
        codecUs += steadyMicros() - t0;
        t0 = steadyMicros();
        ShardResult executed;
        {
            Tracer::Scope span(tracer, "shard", "executeShard", request);
            executed = executeShard(decoded, 1);
        }
        const double executeMs = (steadyMicros() - t0) * 1e-3;
        t0 = steadyMicros();
        std::vector<std::uint8_t> resultBytes;
        {
            Tracer::Scope span(tracer, "shard", "ShardResult::encode",
                               request);
            resultBytes = executed.encode();
        }
        {
            Tracer::Scope span(tracer, "shard", "ShardResult::decode",
                               request);
            results.push_back(ShardResult::decode(resultBytes));
        }
        codecUs += steadyMicros() - t0;
        out.specBytes += specBytes.size();
        out.resultBytes += resultBytes.size();
        if (samples) {
            (*samples)["shard.execute_ms"].push_back(executeMs);
            (*samples)["shard.codec_us"].push_back(codecUs);
        }
    }
    const double m0 = nowMs();
    {
        Tracer::Scope span(tracer, "shard", "mergeShards", job.id);
        out.merged = mergeShards(results);
    }
    if (samples)
        (*samples)["shard.merge_ms"].push_back(nowMs() - m0);
    return out;
}

/**
 * Unsharded split replay of one job: planEnsemble/compileInstance,
 * SimulationEngine::run (compared with the daemon's result), then a
 * second run over the cached schedules.
 */
RunResult
replaySplit(const JobSpec &job, Tracer &tracer, PassLedger &ledger,
            CircuitCounts &circuit, std::uint64_t &prefixHits,
            std::uint64_t &forks, std::uint64_t &cacheHits,
            std::uint64_t &cacheLookups,
            std::map<std::string, std::vector<double>> &samples)
{
    const ShardSpec &spec = job.work;
    const Backend backend = spec.makeBackend();
    PassManager pipeline = spec.makePipeline();
    SimulationEngine engine(backend, spec.makeNoise());
    const EnsembleRunOptions fused = spec.runOptions(1);

    TracedCompile compiled = compileTraced(
        pipeline, spec.logical, backend, ensembleOf(fused), tracer, job.id,
        ledger, circuit, samples["compile.instance_ms"]);
    samples["compile.prefix_ms"].push_back(compiled.prefixMs);
    samples["sim.compile_ms"].push_back(compiled.totalMs);
    prefixHits += compiled.prefixHits;
    std::vector<ScheduledCircuit> schedules;
    for (CompilationResult &instance : compiled.instances)
        schedules.push_back(std::move(instance.scheduled));

    const SplitRun split =
        runSplit(engine, schedules, spec.observables, executionOf(fused),
                 tracer, job.id, samples);
    cacheHits += split.cacheHits;
    cacheLookups += split.cacheLookups;
    forks += split.result.prefixStateHits;
    return split.result;
}

/** Replay checks of every served job, on up to kMaxReplayThreads. */
std::uint64_t
countReplayMismatches(const std::vector<Served> &served, std::uint64_t seed)
{
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> bad{0};
    Tracer off(false);
    auto worker = [&] {
        for (std::size_t i = next++; i < served.size(); i = next++) {
            const Served &s = served[i];
            if (!s.ok)
                continue; // already counted as a failed job
            try {
                const JobSpec job = makeJob(s.id, seed, s.index);
                if (!sameBits(replayShards(job, off, nullptr).merged,
                              s.result))
                    ++bad;
            } catch (const std::exception &) {
                ++bad;
            }
        }
    };
    const unsigned count = std::clamp(std::thread::hardware_concurrency(),
                                      1u, kMaxReplayThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < count; ++t)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    return bad;
}

std::uint64_t
countFailed(const std::vector<Served> &served)
{
    std::uint64_t failed = 0;
    for (const Served &s : served)
        failed += s.ok ? 0 : 1;
    return failed;
}

} // namespace

void
runServiceJobs(const Args &args, Report &report, Tracer &tracer)
{
    // The daemons of the first set-ups are reaped before the window,
    // so childrenPeakRssMb() is the daemon's high-water mark over a
    // set-up.  The window daemon's own mark is not used: it keeps
    // every job's record, so it grows with the number of jobs served.
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < kSetupRepeats; ++i) {
        if (daemon)
            daemon->stop();
        daemon.reset();
        const double t0 = nowMs();
        daemon = std::make_unique<Daemon>(args.serveBin, args.socket);
        // Warm-up: one job per client on seeds the window never uses.
        Tracer off(false);
        closedLoop(args.socket, ~args.seed, "warm", kClients, 1e300, off);
        report.setupSeconds.push_back((nowMs() - t0) * 1e-3);
    }

    if (!args.trace) {
        const double start = nowMs();
        std::vector<Served> served =
            closedLoop(args.socket, args.seed, "job", 1 << 30,
                       start + args.seconds * 1e3, tracer);
        const double wallMs = nowMs() - start;
        for (const Served &s : served)
            report.latencyMs.push_back(s.latencyMs);
        report.requests = served.size();
        report.throughput.push_back(1e3 * double(served.size()) / wallMs);
        report.peakRssMb = selfPeakRssMb() + childrenPeakRssMb();
        daemon->stop();
        report.requestFailures =
            countFailed(served) + countReplayMismatches(served, args.seed);
        return;
    }

    // Tracing overhead: the same closed loop with the tracer off,
    // before and after the traced loops.
    Tracer off(false);
    std::vector<Served> untraced[2];
    auto untracedLoop = [&](int k) {
        const double t0 = nowMs();
        untraced[k] = closedLoop(args.socket, args.seed,
                                 "u" + std::to_string(k) + "-", kTracedJobs,
                                 1e300, off);
        return nowMs() - t0;
    };
    report.untracedMs = untracedLoop(0) / 2.0;

    std::vector<Served> served[2];
    double slotBusy[2] = {0.0, 0.0};
    ServiceTotals before = stats(args.socket);
    report.windowStartUs = steadyMicros();
    for (int pass = 0; pass < 2; ++pass) {
        const double t0 = nowMs();
        served[pass] = closedLoop(args.socket, args.seed,
                                  "t" + std::to_string(pass) + "-",
                                  kTracedJobs, 1e300, tracer);
        const double wallMs = nowMs() - t0;
        report.tracedMs += wallMs / 2.0;
        const ServiceTotals after = stats(args.socket);
        double shardMs = 0.0;
        std::uint64_t retries = 0;
        for (const Served &s : served[pass]) {
            retries += s.progress.retries;
            for (const ShardProgress &shard : s.progress.shards)
                shardMs += shard.wallMillis;
        }
        slotBusy[pass] = shardMs / (double(kSlots) * wallMs);
        report.counts[pass]["service.retries"] = double(retries);
        if (pass == 0) {
            const double executed =
                double(after.shardsExecuted - before.shardsExecuted);
            report.layer["service.steal_ratio"] =
                executed > 0 ? double(after.shardsStolen -
                                      before.shardsStolen) /
                                   executed
                             : 0.0;
            report.layer["service.slot_busy_ratio"] = slotBusy[0];
            auto &samples = report.layerSamples;
            for (const Served &s : served[0]) {
                samples["service.submit_rpc_ms"].push_back(s.submitMs);
                samples["service.queue_wait_ms"].push_back(
                    s.progress.sinceSubmitMillis -
                    s.progress.activeMillis);
                samples["service.active_ms"].push_back(
                    s.progress.activeMillis);
                for (const ShardProgress &shard : s.progress.shards)
                    samples["service.shard_wall_ms"].push_back(
                        shard.wallMillis);
            }
        }
        before = after;
    }

    // In-process replays of every traced job: the sharded replay
    // must equal the daemon's result, and so must the unsharded
    // split path (shard decomposition never changes a bit).
    PassLedger ledger[2];
    std::map<std::string, std::vector<double>> samples[2];
    std::uint64_t mismatches = 0;
    for (int pass = 0; pass < 2; ++pass) {
        CircuitCounts circuit;
        std::uint64_t prefixHits = 0, forks = 0, hits = 0, lookups = 0;
        std::uint64_t specBytes = 0, resultBytes = 0, shardsRun = 0;
        for (const Served &s : served[pass]) {
            if (!s.ok)
                continue;
            try {
                const JobSpec job = makeJob(s.id, args.seed, s.index);
                const ShardReplay shards =
                    replayShards(job, tracer, &samples[pass]);
                specBytes += shards.specBytes;
                resultBytes += shards.resultBytes;
                shardsRun += job.work.shardCount;
                const RunResult split =
                    replaySplit(job, tracer, ledger[pass], circuit,
                                prefixHits, forks, hits, lookups,
                                samples[pass]);
                if (!sameBits(shards.merged, s.result) ||
                    !sameBits(split, s.result))
                    ++mismatches;
            } catch (const std::exception &) {
                ++mismatches;
            }
        }
        const double jobs = double(served[pass].size());
        const double instances = jobs * kInstances;
        auto &counts = report.counts[pass];
        counts["circuit.instructions"] =
            double(circuit.instructions) / instances;
        counts["circuit.dd_pulses"] = double(circuit.ddPulses) / instances;
        counts["circuit.caec_compensations"] =
            double(circuit.compensations) / instances;
        counts["compile.prefix_hit_ratio"] = double(prefixHits) / instances;
        counts["sim.prefix_fork_ratio"] =
            double(forks) / (jobs * kTrajectories);
        counts["sim.variant_cache_hit_ratio"] =
            lookups ? double(hits) / double(lookups) : 0.0;
        const double shards = double(std::max<std::uint64_t>(shardsRun, 1));
        counts["shard.spec_bytes"] = double(specBytes) / shards;
        counts["shard.result_bytes"] = double(resultBytes) / shards;
    }
    report.windowEndUs = steadyMicros();
    report.untracedMs += untracedLoop(1) / 2.0;
    ledger[0].emit(report.layer);
    report.layerSamples.insert(samples[0].begin(), samples[0].end());

    report.requests = untraced[0].size() + untraced[1].size() +
                      served[0].size() + served[1].size();
    report.requestFailures = countFailed(untraced[0]) +
                             countFailed(untraced[1]) +
                             countFailed(served[0]) +
                             countFailed(served[1]) + mismatches;
    report.peakRssMb = selfPeakRssMb() + childrenPeakRssMb();
    daemon->stop();
}

} // namespace casqbench
