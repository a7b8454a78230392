/**
 * @file
 * Job service: admission validation, queue backpressure, scheduler
 * retry/work-stealing determinism, the wire protocol, and the
 * canonical corrupt-payload diagnostics.
 *
 * The heart of the suite is the determinism contract under failure:
 * a job's merged result must be BIT-identical to a single-process
 * Engine::runEnsemble whether or not a worker died mid-shard, for
 * every worker-slot count -- retries and speculative re-executions
 * re-derive the exact same bytes, so recovery can never corrupt an
 * estimate.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <mutex>
#include <thread>

#include "bench_common.hh"
#include "common/serialize.hh"
#include "mutation.hh"
#include "service/job_service.hh"
#include "service/protocol.hh"
#include "service/socket.hh"
#include "sim/shard.hh"

namespace casq {
namespace {

/** Small uneven job: 7 instances, 61 trajectories, 5 observables. */
ShardSpec
testWork(std::uint32_t shard_count = 4)
{
    ShardSpec spec;
    spec.shardIndex = 0;
    spec.shardCount = shard_count;
    spec.logical = bench::syntheticChainWorkload(
        4, 3, /*idle_layers=*/true);
    for (std::uint32_t q = 0; q < 4; ++q)
        spec.observables.push_back(
            PauliString::single(4, q, PauliOp::Z));
    spec.observables.push_back(PauliString::fromLabel("ZZZZ"));
    spec.strategy = "ca-dd";
    spec.backendQubits = 4;
    spec.instances = 7;
    spec.compileSeed = 11;
    spec.trajectories = 61;
    spec.seed = 99;
    return spec;
}

JobSpec
testJob(const std::string &id, std::uint32_t shard_count = 4)
{
    JobSpec job;
    job.id = id;
    job.work = testWork(shard_count);
    return job;
}

/** Single-process reference bits for a job (default: the test job). */
RunResult
reference(const ShardSpec &spec = testWork(1))
{
    const Backend backend = spec.makeBackend();
    PassManager pipeline = spec.makePipeline();
    SimulationEngine engine(backend, spec.makeNoise());
    return engine.runEnsemble(spec.logical, pipeline,
                              spec.observables,
                              spec.runOptions(/*threads=*/1));
}

void
expectBitIdentical(const RunResult &a, const RunResult &b,
                   const std::string &label)
{
    ASSERT_EQ(a.means.size(), b.means.size()) << label;
    ASSERT_EQ(a.stderrs.size(), b.stderrs.size()) << label;
    EXPECT_EQ(a.trajectories, b.trajectories) << label;
    for (std::size_t k = 0; k < a.means.size(); ++k) {
        EXPECT_EQ(a.means[k], b.means[k]) << label << " mean " << k;
        EXPECT_EQ(a.stderrs[k], b.stderrs[k])
            << label << " stderr " << k;
    }
}

/**
 * In-process runner with a fault hook: the hook runs before the
 * real execution and may throw (simulated worker death) or sleep
 * (simulated straggler).
 */
class ScriptedRunner : public ShardRunner
{
  public:
    using Hook = std::function<void(const ShardRunContext &)>;

    explicit ScriptedRunner(Hook hook) : _hook(std::move(hook)) {}

    ShardResult
    run(const ShardSpec &spec, const ShardRunContext &ctx) override
    {
        if (_hook)
            _hook(ctx);
        return executeShard(spec, /*threads=*/1);
    }

  private:
    Hook _hook;
};

JobServiceOptions
serviceOptions(unsigned slots)
{
    JobServiceOptions options;
    options.scheduler.slots = slots;
    // Fail fast in tests: a stuck scheduler surfaces as a ctest
    // timeout either way, but idle polling at 50 ms keeps the
    // steal tests quick.
    options.scheduler.stragglerMinMillis = 50.0;
    options.scheduler.stragglerFactor = 2.0;
    return options;
}

// ----------------------------------------------------- admission

TEST(ServiceAdmission, AcceptsWellFormedJob)
{
    EXPECT_NO_THROW(validateJobSpec(testJob("ok-1.a_B")));
}

TEST(ServiceAdmission, RejectsMalformedIds)
{
    JobSpec job = testJob("x");
    job.id = "";
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
    job.id = "has space";
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
    job.id = "slash/ok";
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
    job.id = std::string(200, 'a');
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsNonzeroShardIndex)
{
    JobSpec job = testJob("x");
    job.work.shardIndex = 1;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsUnknownStrategy)
{
    JobSpec job = testJob("x");
    job.work.strategy = "no-such-strategy";
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsZeroAndOversizedEnsembles)
{
    JobSpec job = testJob("x");
    job.work.instances = 0;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
    job.work.instances = -4;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
    job.work.instances = (1 << 20) + 1;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsBadTrajectoryAndShardCounts)
{
    JobSpec job = testJob("x");
    job.work.trajectories = 0;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);

    job = testJob("x");
    job.work.shardCount = 0;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);

    // More shards than trajectories: some shards would own zero
    // trajectories.
    job = testJob("x");
    job.work.shardCount = 62;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);

    job = testJob("x");
    job.work.trajectories = 1 << 20;
    job.work.shardCount = 4097;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsSlotCountOverflow)
{
    // trajectories x observables must fit the u32 slot counts of
    // the shard wire format.
    JobSpec job = testJob("x");
    job.work.trajectories =
        std::numeric_limits<std::int32_t>::max();
    job.work.shardCount = 1;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsObservableMismatches)
{
    JobSpec job = testJob("x");
    job.work.observables.clear();
    EXPECT_THROW(validateJobSpec(job), AdmissionError);

    job = testJob("x");
    job.work.observables.push_back(
        PauliString::fromLabel("ZZZZZZ"));
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsBackendWidthMismatch)
{
    JobSpec job = testJob("x");
    job.work.backendQubits = 5;
    EXPECT_THROW(validateJobSpec(job), AdmissionError);
}

TEST(ServiceAdmission, RejectsFixedWidthRecipeMismatch)
{
    // The 127-qubit devices ignore backendQubits, so a 4-qubit
    // circuit is refused at admission, not after three shard
    // attempts.
    for (BackendRecipe recipe :
         {BackendRecipe::Nazca, BackendRecipe::Sherbrooke}) {
        JobSpec job = testJob("x");
        job.work.backend = recipe;
        EXPECT_THROW(validateJobSpec(job), AdmissionError)
            << backendRecipeName(recipe);
    }
}

// --------------------------------------------------------- queue

/** Poll until the job's first shard has started on a slot. */
void
waitUntilRunning(const JobService &service, const std::string &id)
{
    while (service.status(id)->state != JobState::Running)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

TEST(ServiceQueue, RejectsDuplicateIdsForTheQueueLifetime)
{
    JobService service(serviceOptions(1));
    service.submit(testJob("a", 1));
    EXPECT_THROW(service.submit(testJob("a", 1)), AdmissionError);
    // Even after the job is done, the id stays burned.
    EXPECT_EQ(service.waitTerminal("a").state, JobState::Done);
    EXPECT_THROW(service.submit(testJob("a", 1)), AdmissionError);
    EXPECT_TRUE(service.status("a").has_value());
    EXPECT_FALSE(service.status("b").has_value());
    EXPECT_EQ(service.totals().jobsAdmitted, 1u);
}

TEST(ServiceQueue, BackpressureWhenFull)
{
    // Job "busy" holds the one slot until released, so every later
    // submission waits in the queue.
    std::promise<void> release;
    const std::shared_future<void> released =
        release.get_future().share();
    auto runner = std::make_unique<ScriptedRunner>(
        [released](const ShardRunContext &ctx) {
            if (ctx.jobId == "busy")
                released.wait_for(std::chrono::seconds(30));
        });
    JobServiceOptions options = serviceOptions(1);
    options.queueCapacity = 2;
    JobService service(options, std::move(runner));
    service.submit(testJob("busy", 1));
    waitUntilRunning(service, "busy");
    EXPECT_NO_THROW(service.submit(testJob("a", 1)));
    EXPECT_NO_THROW(service.submit(testJob("b", 1)));
    EXPECT_THROW(service.submit(testJob("c", 1)), BackpressureError);
    release.set_value();
    for (const char *id : {"busy", "a", "b"})
        EXPECT_EQ(service.waitTerminal(id).state, JobState::Done);
    // Draining makes room again.
    EXPECT_NO_THROW(service.submit(testJob("c", 1)));
    EXPECT_EQ(service.waitTerminal("c").state, JobState::Done);
}

TEST(ServiceQueue, FifoOrderAndRemove)
{
    std::promise<void> release;
    const std::shared_future<void> released =
        release.get_future().share();
    std::mutex mutex;
    std::vector<std::string> adopted;
    auto runner = std::make_unique<ScriptedRunner>(
        [&, released](const ShardRunContext &ctx) {
            {
                std::lock_guard<std::mutex> lock(mutex);
                adopted.push_back(ctx.jobId);
            }
            if (ctx.jobId == "busy")
                released.wait_for(std::chrono::seconds(30));
        });
    JobServiceOptions options = serviceOptions(1);
    options.scheduler.workStealing = false;
    JobService service(options, std::move(runner));
    service.submit(testJob("busy", 1));
    waitUntilRunning(service, "busy");
    for (const char *id : {"a", "b", "c"})
        service.submit(testJob(id, 1));
    EXPECT_EQ(service.cancel("b"),
              JobService::CancelOutcome::Cancelled);
    EXPECT_EQ(service.cancel("b"),
              JobService::CancelOutcome::AlreadyTerminal);
    EXPECT_EQ(service.status("b")->state, JobState::Cancelled);
    release.set_value();
    EXPECT_EQ(service.waitTerminal("a").state, JobState::Done);
    EXPECT_EQ(service.waitTerminal("c").state, JobState::Done);
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(adopted,
              (std::vector<std::string>{"busy", "a", "c"}));
}

// ----------------------------------------------- determinism

TEST(ServiceScheduler, MergedResultMatchesSingleProcess)
{
    const RunResult expect = reference();
    for (unsigned slots : {1u, 2u, 4u}) {
        JobService service(serviceOptions(slots));
        service.submit(testJob("job"));
        const JobProgress done = service.waitTerminal("job");
        ASSERT_EQ(done.state, JobState::Done) << done.error;
        expectBitIdentical(service.result("job"), expect,
                           "slots=" + std::to_string(slots));
    }

    // The counters travel with the bits: a job the routing sends to
    // the tableau reports runEnsemble's RunStats, through the
    // service and through a ResultReply.
    JobSpec clifford = testJob("clifford", 3);
    clifford.work.noise = NoiseModel::pauliOnly();
    clifford.work.simBackend = SimBackendKind::Auto;
    clifford.work.instances = 3;
    clifford.work.trajectories = 30;
    const RunResult direct = reference(clifford.work);
    EXPECT_EQ(direct.stabilizerTrajectories, 30u);
    JobService service(serviceOptions(2));
    service.submit(clifford);
    ResultReply reply;
    reply.job = service.waitTerminal("clifford");
    ASSERT_EQ(reply.job.state, JobState::Done) << reply.job.error;
    reply.result = service.result("clifford");
    expectBitIdentical(reply.result, direct, "clifford");
    const RunResult wired = ResultReply::decode(reply.encode()).result;
    for (const RunStats &served : {reply.result, wired}) {
        EXPECT_EQ(served.stabilizerTrajectories,
                  direct.stabilizerTrajectories);
        EXPECT_EQ(served.prefixStateHits, direct.prefixStateHits);
    }
}

TEST(ServiceScheduler, RetryAfterWorkerDeathIsBitIdentical)
{
    const RunResult expect = reference();
    for (unsigned slots : {1u, 2u, 4u}) {
        // First execution of shard 1 dies mid-shard; the retry must
        // re-derive the exact same bytes.
        auto runner = std::make_unique<ScriptedRunner>(
            [](const ShardRunContext &ctx) {
                if (ctx.shardIndex == 1 && ctx.attempt == 1) {
                    throw ShardExecutionError(
                        "injected worker death");
                }
            });
        JobService service(serviceOptions(slots),
                           std::move(runner));
        service.submit(testJob("job"));
        const JobProgress done = service.waitTerminal("job");
        ASSERT_EQ(done.state, JobState::Done) << done.error;
        EXPECT_GE(done.retries, 1u);
        expectBitIdentical(service.result("job"), expect,
                           "slots=" + std::to_string(slots));
        const ServiceTotals totals = service.totals();
        EXPECT_GE(totals.shardFailures, 1u);
        EXPECT_GE(totals.shardRetries, 1u);
    }
}

TEST(ServiceScheduler, RetryAfterDeathPastTheWorkIsBitIdentical)
{
    // The first execution of shard 1 does all of its work and dies
    // before handing the result back (a subprocess killed while
    // writing it): nothing of that copy may reach the counters or
    // the merge, and the retry must re-derive the same bytes.
    class LateDeathRunner : public ShardRunner
    {
      public:
        ShardResult
        run(const ShardSpec &spec, const ShardRunContext &ctx) override
        {
            ShardResult result = executeShard(spec, /*threads=*/1);
            if (ctx.shardIndex == 1 && ctx.attempt == 1)
                throw ShardExecutionError("injected late death");
            return result;
        }
    };
    const RunResult expect = reference();
    for (unsigned slots : {1u, 2u, 4u}) {
        // No steals, so the counts below are exact.
        JobServiceOptions options = serviceOptions(slots);
        options.scheduler.workStealing = false;
        JobService service(options,
                           std::make_unique<LateDeathRunner>());
        service.submit(testJob("job"));
        const JobProgress done = service.waitTerminal("job");
        ASSERT_EQ(done.state, JobState::Done) << done.error;
        EXPECT_EQ(done.retries, 1u);
        EXPECT_EQ(done.shards[1].attempts, 2u);
        EXPECT_EQ(done.trajectoriesDone, done.trajectories);
        expectBitIdentical(service.result("job"), expect,
                           "slots=" + std::to_string(slots));
        const ServiceTotals totals = service.totals();
        EXPECT_EQ(totals.shardFailures, 1u);
        EXPECT_EQ(totals.shardsExecuted, 4u);
    }
}

TEST(ServiceScheduler, ExhaustedAttemptsFailTheJob)
{
    auto runner = std::make_unique<ScriptedRunner>(
        [](const ShardRunContext &ctx) {
            if (ctx.shardIndex == 2) {
                throw ShardExecutionError(
                    "shard 2 always dies");
            }
        });
    JobServiceOptions options = serviceOptions(2);
    options.scheduler.maxAttempts = 2;
    JobService service(options, std::move(runner));
    service.submit(testJob("doomed"));
    const JobProgress done = service.waitTerminal("doomed");
    EXPECT_EQ(done.state, JobState::Failed);
    EXPECT_NE(done.error.find("failed after"), std::string::npos)
        << done.error;
    EXPECT_THROW(service.result("doomed"), ServiceError);
}

TEST(ServiceScheduler, StealsStragglerAndStaysBitIdentical)
{
    const RunResult expect = reference();
    // Shard 0's first execution hangs; once the fast shards
    // complete, an idle slot speculatively re-executes it and the
    // job finishes long before the hung copy wakes up.
    std::atomic<int> hangs{0};
    auto runner = std::make_unique<ScriptedRunner>(
        [&hangs](const ShardRunContext &ctx) {
            if (ctx.shardIndex == 0 && ctx.attempt == 1) {
                hangs += 1;
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1500));
            }
        });
    JobService service(serviceOptions(2), std::move(runner));
    service.submit(testJob("slow"));
    const JobProgress done = service.waitTerminal("slow");
    ASSERT_EQ(done.state, JobState::Done) << done.error;
    EXPECT_EQ(hangs.load(), 1);
    EXPECT_GE(service.totals().shardsStolen, 1u);
    expectBitIdentical(service.result("slow"), expect, "steal");
}

TEST(ServiceScheduler, ConcurrentJobsAllMatch)
{
    const RunResult expect = reference();
    JobService service(serviceOptions(4));
    for (int j = 0; j < 3; ++j)
        service.submit(
            testJob("job-" + std::to_string(j), 3 + j));
    for (int j = 0; j < 3; ++j) {
        const std::string id = "job-" + std::to_string(j);
        const JobProgress done = service.waitTerminal(id);
        ASSERT_EQ(done.state, JobState::Done) << done.error;
        expectBitIdentical(service.result(id), expect, id);
    }
    EXPECT_EQ(service.totals().jobsDone, 3u);
}

TEST(ServiceScheduler, CancelQueuedJob)
{
    // One slot busy on a slow job keeps the second job queued long
    // enough to cancel it before adoption.
    auto runner = std::make_unique<ScriptedRunner>(
        [](const ShardRunContext &ctx) {
            if (ctx.jobId == "busy") {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(200));
            }
        });
    JobServiceOptions options = serviceOptions(1);
    options.scheduler.workStealing = false;
    JobService service(options, std::move(runner));
    service.submit(testJob("busy", 1));
    service.submit(testJob("victim", 1));
    EXPECT_EQ(service.cancel("victim"),
              JobService::CancelOutcome::Cancelled);
    EXPECT_EQ(service.cancel("no-such-job"),
              JobService::CancelOutcome::Unknown);
    const JobProgress victim = service.waitTerminal("victim");
    EXPECT_EQ(victim.state, JobState::Cancelled);
    const JobProgress busy = service.waitTerminal("busy");
    EXPECT_EQ(busy.state, JobState::Done) << busy.error;
    EXPECT_EQ(service.cancel("busy"),
              JobService::CancelOutcome::AlreadyTerminal);
}

/** The cheapest job: 2 qubits, 1 instance, 1 trajectory, 1 shard. */
JobSpec
tinyJob(const std::string &id)
{
    JobSpec job;
    job.id = id;
    ShardSpec &spec = job.work;
    spec.shardCount = 1;
    spec.logical = bench::syntheticChainWorkload(
        2, 2, /*idle_layers=*/true);
    for (std::uint32_t q = 0; q < 2; ++q)
        spec.observables.push_back(
            PauliString::single(2, q, PauliOp::Z));
    spec.strategy = "ca-dd";
    spec.backendQubits = 2;
    spec.instances = 1;
    spec.trajectories = 1;
    return job;
}

TEST(ServiceScheduler, SubmitToIdleSlotNeverStalls)
{
    // Each submission lands just as the one slot, done with the
    // previous job, heads back to sleep; a wakeup lost there leaves
    // the job Queued forever.
    JobServiceOptions options;
    options.scheduler.slots = 1;
    JobService service(options);
    std::promise<std::string> outcome; // empty: every job was Done
    std::future<std::string> finished = outcome.get_future();
    std::thread client([&service, &outcome] {
        try {
            for (int j = 0; j < 2000; ++j) {
                const std::string id = "tiny-" + std::to_string(j);
                service.submit(tinyJob(id));
                const JobProgress done = service.waitTerminal(id);
                if (done.state != JobState::Done) {
                    outcome.set_value(id + " is " +
                                      jobStateName(done.state));
                    return;
                }
            }
            outcome.set_value("");
        } catch (const std::exception &err) {
            outcome.set_value(err.what());
        }
    });
    if (finished.wait_for(std::chrono::seconds(60)) !=
        std::future_status::ready) {
        ADD_FAILURE() << "a submitted job stalled in the queue";
        service.shutdown(); // the blocked waitTerminal throws
    }
    client.join();
    EXPECT_EQ(finished.get(), "");
}

TEST(ServiceScheduler, DuplicateSubmitRejectedAtServiceLevel)
{
    JobService service(serviceOptions(2));
    service.submit(testJob("once"));
    EXPECT_THROW(service.submit(testJob("once")), AdmissionError);
    const JobProgress done = service.waitTerminal("once");
    EXPECT_EQ(done.state, JobState::Done) << done.error;
}

// ------------------------------------------------------ protocol

TEST(ServiceProtocol, SubmitRoundTripPreservesTheJob)
{
    SubmitRequest request;
    request.job = testJob("proto-1");
    const SubmitRequest back =
        SubmitRequest::decode(request.encode());
    EXPECT_EQ(back.job.id, "proto-1");
    EXPECT_EQ(back.job.work.jobFingerprint(),
              request.job.work.jobFingerprint());
    EXPECT_EQ(back.job.work.encode(), request.job.work.encode());
}

TEST(ServiceProtocol, RepliesRoundTrip)
{
    StatusReply status;
    status.job.id = "j";
    status.job.state = JobState::Running;
    status.job.shards.resize(3);
    status.job.shards[1].state = ShardState::Done;
    status.job.shards[1].attempts = 2;
    status.job.shards[1].stolen = true;
    status.job.shards[1].wallMillis = 12.5;
    status.job.trajectories = 61;
    status.job.trajectoriesDone = 20;
    status.job.stats = RunStats{20, 7};
    const StatusReply status2 =
        StatusReply::decode(status.encode());
    EXPECT_EQ(status2.job.stats.stabilizerTrajectories, 20u);
    EXPECT_EQ(status2.job.stats.prefixStateHits, 7u);
    EXPECT_EQ(status2.job.id, "j");
    EXPECT_EQ(status2.job.state, JobState::Running);
    ASSERT_EQ(status2.job.shards.size(), 3u);
    EXPECT_TRUE(status2.job.shards[1].stolen);
    EXPECT_EQ(status2.job.shards[1].attempts, 2u);
    EXPECT_EQ(status2.job.shards[1].wallMillis, 12.5);

    StatsReply stats;
    stats.totals.jobsAdmitted = 5;
    stats.totals.shardRetries = 2;
    stats.totals.trajectoriesPerSecond = 123.5;
    stats.totals.trajectoriesDone = 90;
    stats.totals.stats = RunStats{90, 4};
    const StatsReply stats2 = StatsReply::decode(stats.encode());
    EXPECT_EQ(stats2.totals.stats.stabilizerTrajectories, 90u);
    EXPECT_EQ(stats2.totals.stats.prefixStateHits, 4u);
    EXPECT_EQ(stats2.totals.jobsAdmitted, 5u);
    EXPECT_EQ(stats2.totals.shardRetries, 2u);
    EXPECT_EQ(stats2.totals.trajectoriesPerSecond, 123.5);

    ResultReply result;
    result.job.id = "j";
    result.job.state = JobState::Done;
    result.result.means = {0.5, -0.25};
    result.result.stderrs = {0.01, 0.02};
    result.result.trajectories = 61;
    result.result.stabilizerTrajectories = 61;
    result.result.prefixStateHits = 13;
    const ResultReply result2 =
        ResultReply::decode(result.encode());
    EXPECT_EQ(result2.result.means, result.result.means);
    EXPECT_EQ(result2.result.stderrs, result.result.stderrs);
    EXPECT_EQ(result2.result.trajectories, 61);
    EXPECT_EQ(result2.result.stabilizerTrajectories, 61u);
    EXPECT_EQ(result2.result.prefixStateHits, 13u);
}

TEST(ServiceProtocol, ErrorReplyRethrowsTyped)
{
    ErrorReply backpressure;
    backpressure.kind = ErrorReply::Kind::Backpressure;
    backpressure.message = "queue full";
    const ErrorReply decoded =
        ErrorReply::decode(backpressure.encode());
    EXPECT_THROW(decoded.raise(), BackpressureError);

    ErrorReply admission;
    admission.kind = ErrorReply::Kind::Admission;
    EXPECT_THROW(ErrorReply::decode(admission.encode()).raise(),
                 AdmissionError);
}

TEST(ServiceProtocol, RejectsForeignAndCorruptFrames)
{
    EXPECT_THROW(peekMessageType({1, 2, 3}), SerializeError);

    std::vector<std::uint8_t> frame = PingRequest{}.encode();
    frame[0] ^= 0xff; // magic
    EXPECT_THROW(peekMessageType(frame), SerializeError);

    frame = PingRequest{}.encode();
    frame[4] = 9; // version
    EXPECT_THROW(peekMessageType(frame), SerializeError);

    frame = StatusRequest{"j"}.encode();
    frame.push_back(0); // trailing byte
    EXPECT_THROW(StatusRequest::decode(frame), SerializeError);

    // Wrong message type for the decoder.
    EXPECT_THROW(StatusRequest::decode(PingRequest{}.encode()),
                 SerializeError);

    // Impossible counts: a negative trajectory count, or a counter
    // above the trajectories it is a share of.  The error carries
    // the offset.
    const auto rejectedWithOffset = [](auto decode,
                                       const auto &message) {
        try {
            decode(message.encode());
        } catch (const SerializeError &err) {
            return err.hasOffset();
        }
        return false;
    };
    StatusReply status;
    status.job.trajectories = -1;
    EXPECT_TRUE(rejectedWithOffset(StatusReply::decode, status));
    status.job.trajectories = 8;
    status.job.trajectoriesDone = 4;
    status.job.stats.prefixStateHits = 5;
    EXPECT_TRUE(rejectedWithOffset(StatusReply::decode, status));
    StatsReply stats;
    stats.totals.trajectoriesDone = 4;
    stats.totals.stats.prefixStateHits = 5;
    EXPECT_TRUE(rejectedWithOffset(StatsReply::decode, stats));
    ResultReply result;
    result.result.trajectories = -1;
    EXPECT_TRUE(rejectedWithOffset(ResultReply::decode, result));
    result.result.trajectories = 4;
    result.result.stabilizerTrajectories = 5;
    EXPECT_TRUE(rejectedWithOffset(ResultReply::decode, result));
}

/** Decode a frame with the decoder its header names. */
void
decodeFrame(const std::vector<std::uint8_t> &frame)
{
    switch (peekMessageType(frame)) {
      case MessageType::SubmitRequest:
        (void)SubmitRequest::decode(frame).job.work.encode();
        return;
      case MessageType::StatusRequest:
        (void)StatusRequest::decode(frame);
        return;
      case MessageType::ListRequest:
        (void)ListRequest::decode(frame);
        return;
      case MessageType::StatsRequest:
        (void)StatsRequest::decode(frame);
        return;
      case MessageType::ResultRequest:
        (void)ResultRequest::decode(frame);
        return;
      case MessageType::CancelRequest:
        (void)CancelRequest::decode(frame);
        return;
      case MessageType::ShutdownRequest:
        (void)ShutdownRequest::decode(frame);
        return;
      case MessageType::PingRequest:
        (void)PingRequest::decode(frame);
        return;
      case MessageType::SubmitReply:
        (void)SubmitReply::decode(frame);
        return;
      case MessageType::StatusReply:
        (void)StatusReply::decode(frame);
        return;
      case MessageType::ListReply:
        (void)ListReply::decode(frame);
        return;
      case MessageType::StatsReply:
        (void)StatsReply::decode(frame);
        return;
      case MessageType::ResultReply:
        (void)ResultReply::decode(frame);
        return;
      case MessageType::CancelReply:
        (void)CancelReply::decode(frame);
        return;
      case MessageType::ShutdownReply:
        (void)ShutdownReply::decode(frame);
        return;
      case MessageType::PingReply:
        (void)PingReply::decode(frame);
        return;
      case MessageType::ErrorReply:
        (void)ErrorReply::decode(frame);
        return;
    }
    ADD_FAILURE() << "peekMessageType passed an unknown type";
}

TEST(ServiceProtocol, MutatedFramesDecodeOrThrow)
{
    // Seeded mutation loop over one valid frame of every message
    // type: each mutant must decode or throw SerializeError.
    SubmitRequest submit;
    submit.job = testJob("fuzz");
    StatusReply status;
    status.job.id = "j";
    status.job.shards.resize(2);
    status.job.shards[1].state = ShardState::Done;
    ListReply list;
    list.jobs = {status.job, status.job};
    ResultReply result;
    result.job = status.job;
    result.job.state = JobState::Done;
    result.result.means = {0.5, -0.25};
    result.result.stderrs = {0.01, 0.02};
    result.result.trajectories = 61;
    ResultRequest fetch;
    fetch.id = "j";
    fetch.wait = true;
    ErrorReply error;
    error.kind = ErrorReply::Kind::Admission;
    error.message = "no";
    const std::vector<std::vector<std::uint8_t>> corpus = {
        submit.encode(),
        StatusRequest{"j"}.encode(),
        ListRequest{}.encode(),
        StatsRequest{}.encode(),
        fetch.encode(),
        CancelRequest{"j"}.encode(),
        ShutdownRequest{}.encode(),
        PingRequest{}.encode(),
        SubmitReply{}.encode(),
        status.encode(),
        list.encode(),
        StatsReply{}.encode(),
        result.encode(),
        CancelReply{}.encode(),
        ShutdownReply{}.encode(),
        PingReply{}.encode(),
        error.encode()};
    for (const auto &frame : corpus)
        EXPECT_NO_THROW(decodeFrame(frame));

    Rng rng(20261022);
    std::size_t rejected = 0;
    constexpr int kMutants = 4000;
    for (int trial = 0; trial < kMutants; ++trial) {
        auto frame = corpus[std::size_t(trial) % corpus.size()];
        test::mutate(frame, rng);
        try {
            decodeFrame(frame);
        } catch (const SerializeError &) {
            ++rejected;
        }
    }
    EXPECT_GT(rejected, std::size_t(kMutants / 2));
}

// ------------------------------------- corrupt-payload rendering

TEST(ServiceDiagnostics, CorruptSpecCarriesFileAndByteOffset)
{
    std::vector<std::uint8_t> bytes = testWork().encode();
    bytes.resize(bytes.size() / 2); // truncate mid-payload
    try {
        ShardSpec::decode(bytes);
        FAIL() << "truncated spec decoded";
    } catch (const SerializeError &err) {
        EXPECT_TRUE(err.hasOffset());
        const std::string line =
            describePayloadError("job.spec", err);
        EXPECT_EQ(line.find("job.spec: byte "), 0u) << line;
    }
}

TEST(ServiceDiagnostics, CorruptResultCarriesOffsetToo)
{
    std::vector<std::uint8_t> bytes =
        executeShard(testWork(2), 1).encode();
    bytes.resize(12);
    try {
        ShardResult::decode(bytes);
        FAIL() << "truncated result decoded";
    } catch (const SerializeError &err) {
        EXPECT_TRUE(err.hasOffset());
        EXPECT_NE(describePayloadError("r", err).find("byte "),
                  std::string::npos);
    }
}

TEST(ServiceDiagnostics, PathlessRenderingOmitsTheFileClause)
{
    const SerializeError plain("boom");
    EXPECT_EQ(describePayloadError("", plain), "boom");
    const SerializeError at("boom", 7);
    EXPECT_EQ(describePayloadError("", at), "byte 7: boom");
    EXPECT_EQ(describePayloadError("f.bin", plain), "f.bin: boom");
}

// -------------------------------------------------------- socket

TEST(ServiceSocket, FramesRoundTripOverAUnixSocket)
{
    const std::string path =
        testing::TempDir() + "casq-sock-test.sock";
    LocalListener listener = LocalListener::bind(path);

    std::thread server([&listener] {
        LocalSocket peer = listener.accept();
        ASSERT_TRUE(peer.valid());
        for (;;) {
            const auto frame = peer.recvFrame();
            if (!frame)
                return; // client done
            std::vector<std::uint8_t> echo = *frame;
            echo.push_back(0x5a);
            peer.sendFrame(echo);
        }
    });

    {
        LocalSocket client = LocalSocket::connect(path);
        const std::vector<std::uint8_t> empty;
        client.sendFrame(empty);
        auto reply = client.recvFrame();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->size(), 1u);

        std::vector<std::uint8_t> big(100000);
        for (std::size_t k = 0; k < big.size(); ++k)
            big[k] = std::uint8_t(k * 31);
        client.sendFrame(big);
        reply = client.recvFrame();
        ASSERT_TRUE(reply.has_value());
        ASSERT_EQ(reply->size(), big.size() + 1);
        EXPECT_TRUE(std::equal(big.begin(), big.end(),
                               reply->begin()));
    } // client closes; server sees EOF and exits

    server.join();
    listener.close();
}

TEST(ServiceSocket, CloseUnblocksAccept)
{
    const std::string path =
        testing::TempDir() + "casq-sock-close.sock";
    LocalListener listener = LocalListener::bind(path);
    std::thread closer([&listener] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(50));
        listener.close();
    });
    const LocalSocket sock = listener.accept();
    EXPECT_FALSE(sock.valid());
    closer.join();
}

} // namespace
} // namespace casq
