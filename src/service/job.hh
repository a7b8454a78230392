/**
 * @file
 * Core job-service types: what a job is, the states it moves
 * through, the progress snapshots clients read back, and the
 * admission rules that keep a multi-tenant daemon safe from
 * malformed or oversized submissions.
 *
 * A job is one ensemble estimate -- exactly the workload
 * Engine::runEnsemble executes -- described by a ShardSpec
 * (sim/shard.hh) whose shardCount field doubles as the number of
 * shards the scheduler will split the job into.  Admission
 * validation (validateJobSpec) rejects everything the downstream
 * machinery cannot execute or merge: unknown strategies, zero or
 * oversized ensembles, trajectory x observable products that
 * overflow the u32 slot counts of the shard serialization format,
 * and ill-formed job ids.  docs/service.md documents the full job
 * lifecycle.
 */

#ifndef CASQ_SERVICE_JOB_HH
#define CASQ_SERVICE_JOB_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/shard.hh"

namespace casq {

/** Job-service failure (unknown job, bad state, socket trouble). */
class ServiceError : public std::runtime_error
{
  public:
    explicit ServiceError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Submission rejected by admission validation. */
class AdmissionError : public ServiceError
{
  public:
    explicit AdmissionError(const std::string &what)
        : ServiceError(what)
    {
    }
};

/**
 * Submission rejected because the queue is full (backpressure).
 * Clients should back off and retry; nothing about the job itself
 * is wrong.
 */
class BackpressureError : public ServiceError
{
  public:
    explicit BackpressureError(const std::string &what)
        : ServiceError(what)
    {
    }
};

/**
 * One submitted job: a caller-chosen id plus the ensemble workload.
 * work.shardCount is the number of shards the scheduler splits the
 * job into; work.shardIndex must be 0 at submission (the scheduler
 * stamps per-shard indices when it plans the shard specs).
 */
struct JobSpec
{
    std::string id;
    ShardSpec work;

    std::uint32_t shards() const { return work.shardCount; }
};

/**
 * Lifecycle of a job:
 * Queued -> Scheduled -> Running -> Merging -> Done, with Failed
 * and Cancelled as the other terminal states.
 */
enum class JobState : std::uint8_t
{
    Queued = 0,    //!< admitted, waiting for a worker slot
    Scheduled = 1, //!< shards planned, waiting for worker slots
    Running = 2,   //!< at least one shard executing
    Merging = 3,   //!< all shards done, mergeShards in flight
    Done = 4,      //!< merged result available
    Failed = 5,    //!< a shard exhausted its attempts (or merge failed)
    Cancelled = 6, //!< cancelled before completion
};

const char *jobStateName(JobState state);

/** True for Done/Failed/Cancelled. */
bool jobStateTerminal(JobState state);

/** Lifecycle of one shard of a job. */
enum class ShardState : std::uint8_t
{
    Pending = 0, //!< waiting for a worker slot
    Running = 1, //!< executing on at least one slot
    Done = 2,    //!< result captured
    Failed = 3,  //!< attempts exhausted
};

const char *shardStateName(ShardState state);

/** Point-in-time view of one shard of a job. */
struct ShardProgress
{
    ShardState state = ShardState::Pending;
    std::uint32_t attempts = 0; //!< executions started (incl. steals)
    std::int32_t worker = -1;   //!< slot of the live/winning run
    bool stolen = false;        //!< a speculative re-execution ran
    double wallMillis = 0.0;    //!< winning attempt, once done
};

/** Point-in-time view of one job (casq_job status / list). */
struct JobProgress
{
    std::string id;
    JobState state = JobState::Queued;
    std::string error; //!< terminal diagnostic for Failed

    std::vector<ShardProgress> shards;
    std::uint32_t shardsDone = 0;
    std::uint32_t retries = 0; //!< re-queued shard executions

    /** Workload shape (for rendering progress). */
    std::int32_t trajectories = 0;
    std::uint32_t observables = 0;

    /** Trajectories owned by finished shards, and their counters. */
    std::uint64_t trajectoriesDone = 0;
    RunStats stats;

    /** Milliseconds since submission. */
    double sinceSubmitMillis = 0.0;

    /** Milliseconds of active execution (first shard start on). */
    double activeMillis = 0.0;

    /** trajectoriesDone over the active window. */
    double trajectoriesPerSecond = 0.0;
};

/** Aggregated service counters (casq_job stats). */
struct ServiceTotals
{
    std::uint64_t jobsAdmitted = 0;
    std::uint64_t jobsDone = 0;
    std::uint64_t jobsFailed = 0;
    std::uint64_t jobsCancelled = 0;
    std::uint64_t shardsExecuted = 0; //!< successful executions
    std::uint64_t shardFailures = 0;  //!< failed executions
    std::uint64_t shardRetries = 0;   //!< re-queued after a failure
    std::uint64_t shardsStolen = 0;   //!< speculative re-executions
    std::uint64_t trajectoriesDone = 0;
    RunStats stats; //!< over trajectoriesDone

    double upMillis = 0.0;
    double trajectoriesPerSecond = 0.0; //!< over the whole uptime
};

/**
 * Bounds enforced at admission.  The defaults mirror the
 * serialization layer's plausibility limits (sim/shard.cc) so that
 * everything the queue admits can round-trip the shard protocol.
 */
struct AdmissionLimits
{
    /** Oversized-ensemble bound (casq_shard plan's --instances cap). */
    std::int32_t maxInstances = 1 << 20;

    /** Shards per job (beyond this, shards own < 1 trajectory anyway). */
    std::uint32_t maxShards = 4096;

    /** Job-id length bound; ids are [A-Za-z0-9._-]+. */
    std::size_t maxIdLength = 128;
};

/**
 * Validate a submission against the admission rules; throws
 * AdmissionError with a client-renderable diagnostic on the first
 * violation.  Checks (in order): well-formed id, shardIndex == 0,
 * known strategy, instance count in (0, maxInstances] (zero and
 * oversized ensembles are both rejected), trajectories >= 1,
 * shard count in [1, min(trajectories, maxShards)], non-empty
 * observables of the circuit's width, trajectories x observables
 * fitting the u32 slot counts of the shard wire format (the
 * "overflow shard math" guard), and backend width consistency for
 * the parameterized recipes.
 */
void validateJobSpec(const JobSpec &job,
                     const AdmissionLimits &limits = {});

} // namespace casq

#endif // CASQ_SERVICE_JOB_HH
