/**
 * @file
 * The job service: admission, a pool of worker slots executing the
 * shards of many concurrent jobs with shard-level retry and
 * work-stealing, and the progress queries clients read back.
 *
 * The daemon (tools/casq_serve) and the in-process tests drive the
 * same surface:
 *
 *   JobService service(options);
 *   service.submit(job);             // throws AdmissionError /
 *                                    // BackpressureError
 *   service.waitTerminal("job-1");   // blocks until terminal
 *   RunResult r = service.result("job-1");
 *
 * Every job is one record, created at admission and kept for the
 * daemon's lifetime (ids stay burned, results stay queryable).  One
 * mutex guards the records, the FIFO of queued jobs (bounded by
 * queueCapacity: BackpressureError beyond it), the deque of ready
 * shards, the service counters and the worker slots; status/list/
 * waitTerminal build their snapshots from the records on request.
 *
 * Jobs are adopted in FIFO order whenever a slot runs out of ready
 * shards.  Adoption splits the job into shardCount ShardSpecs (they
 * differ only in shardIndex, exactly like `casq_shard plan`) and
 * appends them to the ready deque every slot drains.
 *
 * Failure handling leans entirely on the shard determinism
 * contract (sim/shard.hh): shard execution is bit-deterministic,
 * so re-executing a shard -- after a worker death, or
 * speculatively while a straggling copy is still running -- can
 * never corrupt the merge; whichever attempt completes first
 * supplies the exact same bytes any other attempt would have.
 *
 *  - retry: a failed execution (runner threw: in-process error,
 *    subprocess death, corrupt result payload) re-queues the shard
 *    until its attempt budget is exhausted, which fails the job;
 *  - work-stealing: an idle slot re-executes the longest-running
 *    shard once it has run for stragglerFactor x the job's median
 *    completed-shard wall time (at least stragglerMinMillis), so
 *    one hung worker cannot stall a job forever.
 *
 * When the last shard of a job completes, the completing slot runs
 * the provenance-checked mergeShards() outside the lock -- the
 * job's result is byte-identical to a single-process
 * Engine::runEnsemble.  All methods are thread-safe; the daemon
 * calls them from one connection-handling thread per client.
 */

#ifndef CASQ_SERVICE_JOB_SERVICE_HH
#define CASQ_SERVICE_JOB_SERVICE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/job.hh"
#include "sim/shard.hh"

namespace casq {

/** One shard execution failed; the service may retry it. */
class ShardExecutionError : public ServiceError
{
  public:
    explicit ShardExecutionError(const std::string &what)
        : ServiceError(what)
    {
    }
};

/** Context handed to a runner for diagnostics and chaos hooks. */
struct ShardRunContext
{
    std::string jobId;
    std::uint32_t shardIndex = 0;
    std::uint32_t shardCount = 1;
    std::uint32_t attempt = 1; //!< 1-based execution attempt
    unsigned worker = 0;       //!< slot id
};

/**
 * Executes one shard spec to a ShardResult.  Implementations throw
 * (any exception; ShardExecutionError by convention) to signal a
 * retryable failure.  run() is called concurrently from different
 * worker slots and must be thread-safe.
 */
class ShardRunner
{
  public:
    virtual ~ShardRunner() = default;
    virtual ShardResult run(const ShardSpec &spec,
                            const ShardRunContext &ctx) = 0;
};

/** Default runner: executeShard() in this process. */
class InProcessShardRunner : public ShardRunner
{
  public:
    /** `threads` = engine workers per shard execution. */
    explicit InProcessShardRunner(int threads = 1)
        : _threads(threads)
    {
    }

    ShardResult run(const ShardSpec &spec,
                    const ShardRunContext &ctx) override;

  private:
    int _threads;
};

struct SchedulerOptions
{
    /** Worker slots (concurrent shard executions). */
    unsigned slots = 2;

    /** Execution attempts per shard before the job fails. */
    std::uint32_t maxAttempts = 3;

    /** Enable speculative re-execution of stragglers. */
    bool workStealing = true;

    /**
     * A running shard becomes steal-eligible after
     * max(stragglerMinMillis, stragglerFactor x median completed
     * shard wall time of its job).  Until a job has a completed
     * shard to calibrate against, only stragglerGraceMillis
     * applies.
     */
    double stragglerFactor = 4.0;
    double stragglerMinMillis = 250.0;
    double stragglerGraceMillis = 30000.0;
};

struct JobServiceOptions
{
    /** Admission queue capacity (backpressure beyond this). */
    std::size_t queueCapacity = 64;

    AdmissionLimits limits;
    SchedulerOptions scheduler;

    /**
     * Engine threads per in-process shard execution (ignored when
     * a custom runner is supplied).
     */
    int threadsPerShard = 1;
};

class JobService
{
  public:
    /** `runner` overrides the in-process executor (subprocess
     *  spawning, fault injection); null = InProcessShardRunner.
     *  Construction spawns the worker slots. */
    explicit JobService(JobServiceOptions options = {},
                        std::unique_ptr<ShardRunner> runner = nullptr);
    ~JobService();

    JobService(const JobService &) = delete;
    JobService &operator=(const JobService &) = delete;

    /**
     * Validate and enqueue a job.  Throws AdmissionError (malformed
     * submission, duplicate id) or BackpressureError (queue full).
     */
    void submit(JobSpec job);

    /** Snapshot of one job; nullopt for an unknown id. */
    std::optional<JobProgress> status(const std::string &id) const;

    /** Snapshots of all jobs, admission order. */
    std::vector<JobProgress> list() const;

    ServiceTotals totals() const;

    /**
     * Block until the job is Done/Failed/Cancelled.  Throws
     * ServiceError for an unknown id, or when the service shuts
     * down first.
     */
    JobProgress waitTerminal(const std::string &id) const;

    enum class CancelOutcome
    {
        Cancelled,
        Unknown,
        AlreadyTerminal, //!< done/failed/cancelled (or merging)
    };

    /** Cancel a queued or running job; running shards finish and
     *  their results are discarded. */
    CancelOutcome cancel(const std::string &id);

    /**
     * Merged result of a Done job (byte-identical to a
     * single-process Engine::runEnsemble of the same spec).  Throws
     * ServiceError if the job is not Done.
     */
    RunResult result(const std::string &id) const;

    /** Unblock waiters; stop the worker slots once their in-flight
     *  executions finish. */
    void shutdown();

  private:
    using Clock = std::chrono::steady_clock;

    /** One shard: its client-visible progress plus task state. */
    struct ShardTask
    {
        ShardProgress progress;
        int runningCopies = 0; //!< executions in flight (steals: 2)
        Clock::time_point startedAt;
        ShardResult result;
    };

    struct JobRecord
    {
        JobSpec spec;
        JobState state = JobState::Queued;
        std::string error;
        std::vector<ShardTask> shards;
        std::uint32_t shardsDone = 0;
        std::uint32_t retries = 0;
        std::uint64_t trajectoriesDone = 0;
        RunStats stats;
        std::vector<double> completedWallMillis;
        Clock::time_point submittedAt;
        std::optional<Clock::time_point> firstStartAt;
        std::optional<Clock::time_point> finishedAt;
        RunResult merged;
    };

    JobServiceOptions _options;
    std::unique_ptr<ShardRunner> _runner;
    const Clock::time_point _startedAt = Clock::now();

    mutable std::mutex _mutex;
    std::condition_variable _wake;             //!< slots
    mutable std::condition_variable _finished; //!< waitTerminal
    /** Every record in admission order, never erased; push_back
     *  keeps each record's address stable, so the index and the
     *  queues below hold plain pointers. */
    std::deque<JobRecord> _jobs;
    std::unordered_map<std::string, JobRecord *> _byId;
    std::deque<JobRecord *> _queued;
    std::deque<std::pair<JobRecord *, std::uint32_t>> _ready;
    /** Adopted jobs not yet merging or terminal: the only ones an
     *  idle slot scans for stragglers. */
    std::vector<JobRecord *> _active;
    ServiceTotals _totals;
    int _executing = 0; //!< shard executions in flight
    bool _stopping = false;
    std::vector<std::thread> _slots;

    // The methods below run with _mutex held (slotLoop takes it
    // itself and drops it around each execution, mergeJob around
    // the merge).

    void slotLoop(unsigned self);

    /**
     * Claim the next unit of work for a slot: a ready shard, a
     * freshly adopted job's first shard, or a steal.  Waits when
     * there is none; returns false when the service is stopping.
     */
    bool nextTask(std::unique_lock<std::mutex> &lock, JobRecord *&job,
                  std::uint32_t &shard, bool &stolen);

    /** Straggler eligible for speculation, or nullptr. */
    std::pair<JobRecord *, std::uint32_t> stealCandidate() const;

    /** Process one execution outcome. */
    void onOutcome(JobRecord &job, std::uint32_t shard, unsigned self,
                   std::optional<ShardResult> result,
                   const std::string &error, double wallMillis,
                   std::unique_lock<std::mutex> &lock);

    /** Merge a job whose shards are all done; the lock is released
     *  during the merge itself. */
    void mergeJob(JobRecord &job, std::unique_lock<std::mutex> &lock);

    /** Record a state change: Merging and the terminal states
     *  leave _active, terminal ones are counted and wake waiters. */
    void setState(JobRecord &job, JobState state,
                  const std::string &error = "");

    JobProgress snapshot(const JobRecord &job) const;
};

} // namespace casq

#endif // CASQ_SERVICE_JOB_SERVICE_HH
