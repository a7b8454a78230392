#include "service/job_service.hh"

#include <algorithm>

namespace casq {

namespace {

double
millisBetween(std::chrono::steady_clock::time_point from,
              std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace

ShardResult
InProcessShardRunner::run(const ShardSpec &spec,
                          const ShardRunContext &)
{
    return executeShard(spec, _threads);
}

JobService::JobService(JobServiceOptions options,
                       std::unique_ptr<ShardRunner> runner)
    : _options(options), _runner(std::move(runner))
{
    if (!_runner) {
        _runner = std::make_unique<InProcessShardRunner>(
            options.threadsPerShard);
    }
    _options.queueCapacity =
        std::max(std::size_t(1), _options.queueCapacity);
    const unsigned slots = std::max(1u, _options.scheduler.slots);
    _slots.reserve(slots);
    for (unsigned s = 0; s < slots; ++s)
        _slots.emplace_back([this, s] { slotLoop(s); });
}

JobService::~JobService()
{
    shutdown();
}

void
JobService::submit(JobSpec job)
{
    // Validation needs no job state; keep it outside the lock.
    validateJobSpec(job, _options.limits);

    std::lock_guard<std::mutex> lock(_mutex);
    if (_byId.count(job.id)) {
        throw AdmissionError("duplicate job id '" + job.id +
                             "' (ids are unique for the daemon's "
                             "lifetime)");
    }
    if (_queued.size() >= _options.queueCapacity) {
        throw BackpressureError(
            "job queue is full (" +
            std::to_string(_options.queueCapacity) +
            " job(s) queued); back off and retry");
    }
    JobRecord &record = _jobs.emplace_back();
    record.spec = std::move(job);
    _byId.emplace(record.spec.id, &record);
    _totals.jobsAdmitted += 1;
    record.shards.resize(record.spec.shards());
    record.submittedAt = Clock::now();
    _queued.push_back(&record);
    _wake.notify_one();
}

std::optional<JobProgress>
JobService::status(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _byId.find(id);
    if (it == _byId.end())
        return std::nullopt;
    return snapshot(*it->second);
}

std::vector<JobProgress>
JobService::list() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::vector<JobProgress> snapshots;
    snapshots.reserve(_jobs.size());
    for (const JobRecord &job : _jobs)
        snapshots.push_back(snapshot(job));
    return snapshots;
}

ServiceTotals
JobService::totals() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    ServiceTotals totals = _totals;
    totals.upMillis = millisBetween(_startedAt, Clock::now());
    if (totals.upMillis > 0.0) {
        totals.trajectoriesPerSecond =
            1e3 * double(totals.trajectoriesDone) / totals.upMillis;
    }
    return totals;
}

JobProgress
JobService::waitTerminal(const std::string &id) const
{
    std::unique_lock<std::mutex> lock(_mutex);
    const auto it = _byId.find(id);
    if (it == _byId.end())
        throw ServiceError("unknown job '" + id + "'");
    const JobRecord &job = *it->second;
    _finished.wait(lock, [&] {
        return jobStateTerminal(job.state) || _stopping;
    });
    if (!jobStateTerminal(job.state)) {
        throw ServiceError("service is shutting down before job '" +
                           id + "' finished");
    }
    return snapshot(job);
}

JobService::CancelOutcome
JobService::cancel(const std::string &id)
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _byId.find(id);
    if (it == _byId.end())
        return CancelOutcome::Unknown;
    JobRecord &job = *it->second;
    // A merging job is effectively finished (all compute is spent);
    // treat it like a terminal job rather than racing the merge.
    if (jobStateTerminal(job.state) ||
        job.state == JobState::Merging) {
        return CancelOutcome::AlreadyTerminal;
    }
    if (job.state == JobState::Queued)
        _queued.erase(std::find(_queued.begin(), _queued.end(), &job));
    setState(job, JobState::Cancelled);
    return CancelOutcome::Cancelled;
}

RunResult
JobService::result(const std::string &id) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const auto it = _byId.find(id);
    if (it == _byId.end())
        throw ServiceError("unknown job '" + id + "'");
    const JobRecord &job = *it->second;
    if (job.state != JobState::Done) {
        throw ServiceError(
            "job '" + id + "' is " + jobStateName(job.state) +
            (job.error.empty() ? std::string() : ": " + job.error));
    }
    return job.merged;
}

void
JobService::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
    }
    _wake.notify_all();
    _finished.notify_all();
    for (std::thread &slot : _slots) {
        if (slot.joinable())
            slot.join();
    }
}

void
JobService::slotLoop(unsigned self)
{
    std::unique_lock<std::mutex> lock(_mutex);
    JobRecord *job = nullptr;
    std::uint32_t shard = 0;
    bool stolen = false;
    while (nextTask(lock, job, shard, stolen)) {
        ShardTask &task = job->shards[shard];
        ShardProgress &progress = task.progress;
        progress.attempts += 1;
        progress.worker = std::int32_t(self);
        task.runningCopies += 1;
        if (progress.state == ShardState::Pending) {
            progress.state = ShardState::Running;
            task.startedAt = Clock::now();
        }
        if (stolen) {
            progress.stolen = true;
            _totals.shardsStolen += 1;
        }
        if (job->state == JobState::Scheduled) {
            job->state = JobState::Running;
            job->firstStartAt = Clock::now();
        }
        _executing += 1;

        ShardSpec spec = job->spec.work;
        spec.shardIndex = shard;
        ShardRunContext ctx;
        ctx.jobId = job->spec.id;
        ctx.shardIndex = shard;
        ctx.shardCount = spec.shardCount;
        ctx.attempt = progress.attempts;
        ctx.worker = self;

        lock.unlock();
        std::optional<ShardResult> result;
        std::string error;
        const auto begin = Clock::now();
        try {
            result = _runner->run(spec, ctx);
        } catch (const std::exception &err) {
            error = err.what();
        } catch (...) {
            error = "unknown shard execution failure";
        }
        const double wall_millis = millisBetween(begin, Clock::now());
        lock.lock();
        onOutcome(*job, shard, self, std::move(result), error,
                  wall_millis, lock);
    }
}

bool
JobService::nextTask(std::unique_lock<std::mutex> &lock,
                     JobRecord *&job, std::uint32_t &shard,
                     bool &stolen)
{
    const SchedulerOptions &options = _options.scheduler;
    for (;;) {
        if (_stopping)
            return false;

        while (!_ready.empty()) {
            auto [candidate, k] = _ready.front();
            _ready.pop_front();
            // Entries of cancelled/failed jobs are skipped lazily.
            if (jobStateTerminal(candidate->state))
                continue;
            job = candidate;
            shard = k;
            stolen = false;
            return true;
        }

        if (!_queued.empty()) {
            // Adopt the next queued job: plan one ready entry per
            // shard, and let every slot help with them.
            JobRecord *adopted = _queued.front();
            _queued.pop_front();
            adopted->state = JobState::Scheduled;
            _active.push_back(adopted);
            for (std::uint32_t k = 0; k < adopted->spec.shards(); ++k)
                _ready.emplace_back(adopted, k);
            _wake.notify_all();
            continue;
        }

        if (options.workStealing) {
            const auto [candidate, k] = stealCandidate();
            if (candidate) {
                job = candidate;
                shard = k;
                stolen = true;
                return true;
            }
        }

        // With executions in flight a straggler may mature into a
        // steal candidate, so poll; otherwise sleep until notified
        // (new submission, outcome, or shutdown).
        if (options.workStealing && _executing > 0)
            _wake.wait_for(lock, std::chrono::milliseconds(50));
        else
            _wake.wait(lock);
    }
}

std::pair<JobService::JobRecord *, std::uint32_t>
JobService::stealCandidate() const
{
    const SchedulerOptions &options = _options.scheduler;
    const auto now = Clock::now();
    JobRecord *best_job = nullptr;
    std::uint32_t best_shard = 0;
    double best_over = 0.0;
    for (JobRecord *job : _active) {
        // Calibrate "straggling" against the job's own completed
        // shards; before any completion only the (large) grace
        // threshold applies, so a healthy cold start is never
        // duplicated.
        const double threshold =
            job->completedWallMillis.empty()
                ? options.stragglerGraceMillis
                : std::max(options.stragglerMinMillis,
                           options.stragglerFactor *
                               median(job->completedWallMillis));
        for (std::uint32_t k = 0; k < job->shards.size(); ++k) {
            const ShardTask &task = job->shards[k];
            if (task.progress.state != ShardState::Running ||
                task.runningCopies != 1) {
                continue;
            }
            if (task.progress.attempts >= options.maxAttempts)
                continue;
            const double over =
                millisBetween(task.startedAt, now) - threshold;
            if (over > best_over) {
                best_over = over;
                best_job = job;
                best_shard = k;
            }
        }
    }
    return {best_job, best_shard};
}

void
JobService::onOutcome(JobRecord &job, std::uint32_t shard,
                      unsigned self, std::optional<ShardResult> result,
                      const std::string &error, double wallMillis,
                      std::unique_lock<std::mutex> &lock)
{
    _executing -= 1;
    ShardTask &task = job.shards[shard];
    ShardProgress &progress = task.progress;
    task.runningCopies -= 1;
    _wake.notify_all();

    // The job may have been cancelled or failed while this shard
    // executed; its outcome is discarded either way.
    if (jobStateTerminal(job.state))
        return;

    if (result) {
        if (progress.state == ShardState::Done)
            return; // a stolen twin already delivered these bits
        progress.state = ShardState::Done;
        progress.worker = std::int32_t(self);
        progress.wallMillis = wallMillis;
        task.result = std::move(*result);
        const std::uint64_t owned = task.result.ownedTrajectories();
        job.shardsDone += 1;
        job.trajectoriesDone += owned;
        job.stats += task.result.run.stats;
        job.completedWallMillis.push_back(wallMillis);
        _totals.shardsExecuted += 1;
        _totals.trajectoriesDone += owned;
        _totals.stats += task.result.run.stats;
        if (job.shardsDone == job.shards.size())
            mergeJob(job, lock);
        return;
    }

    _totals.shardFailures += 1;
    if (progress.state == ShardState::Done)
        return; // the shard already completed via another copy
    if (task.runningCopies > 0)
        return; // a speculative copy is still running; let it decide
    if (progress.attempts >= _options.scheduler.maxAttempts) {
        progress.state = ShardState::Failed;
        setState(job, JobState::Failed,
                 "shard " + std::to_string(shard) + " failed after " +
                     std::to_string(progress.attempts) +
                     " attempt(s): " + error);
        return;
    }
    // Retry: bit-determinism makes re-execution merge-hazard-free.
    progress.state = ShardState::Pending;
    progress.worker = -1;
    job.retries += 1;
    _totals.shardRetries += 1;
    _ready.emplace_back(&job, shard);
    _wake.notify_all();
}

void
JobService::mergeJob(JobRecord &job,
                     std::unique_lock<std::mutex> &lock)
{
    setState(job, JobState::Merging);
    std::vector<ShardResult> results;
    results.reserve(job.shards.size());
    for (ShardTask &task : job.shards)
        results.push_back(std::move(task.result));
    // The merge is pure CPU over captured payloads; run it without
    // the lock so other jobs keep flowing.  cancel() treats Merging
    // as terminal, so the state cannot change underneath us.
    lock.unlock();
    std::optional<RunResult> merged;
    std::string error;
    try {
        merged = mergeShards(results);
    } catch (const std::exception &err) {
        error = err.what();
    }
    lock.lock();
    if (merged) {
        job.merged = std::move(*merged);
        setState(job, JobState::Done);
    } else {
        setState(job, JobState::Failed, "merge failed: " + error);
    }
}

void
JobService::setState(JobRecord &job, JobState state,
                     const std::string &error)
{
    job.state = state;
    if (!error.empty())
        job.error = error;
    const auto active = std::find(_active.begin(), _active.end(), &job);
    if (active != _active.end())
        _active.erase(active);
    if (!jobStateTerminal(state))
        return;
    job.finishedAt = Clock::now();
    switch (state) {
      case JobState::Done: _totals.jobsDone += 1; break;
      case JobState::Failed: _totals.jobsFailed += 1; break;
      case JobState::Cancelled: _totals.jobsCancelled += 1; break;
      default: break;
    }
    _finished.notify_all();
}

JobProgress
JobService::snapshot(const JobRecord &job) const
{
    JobProgress p;
    p.id = job.spec.id;
    p.state = job.state;
    p.error = job.error;
    p.shards.reserve(job.shards.size());
    for (const ShardTask &task : job.shards)
        p.shards.push_back(task.progress);
    p.shardsDone = job.shardsDone;
    p.retries = job.retries;
    p.trajectories = job.spec.work.trajectories;
    p.observables = std::uint32_t(job.spec.work.observables.size());
    p.trajectoriesDone = job.trajectoriesDone;
    p.stats = job.stats;
    const auto now = Clock::now();
    p.sinceSubmitMillis = millisBetween(job.submittedAt, now);
    if (job.firstStartAt) {
        p.activeMillis = millisBetween(*job.firstStartAt,
                                       job.finishedAt.value_or(now));
        if (p.activeMillis > 0.0) {
            p.trajectoriesPerSecond =
                1e3 * double(p.trajectoriesDone) / p.activeMillis;
        }
    }
    return p;
}

} // namespace casq
