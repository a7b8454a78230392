#include "service/protocol.hh"

namespace casq {

namespace {

void
writeHeader(ByteWriter &w, MessageType type)
{
    w.u32(kProtocolMagic);
    w.u8(kProtocolVersion);
    w.u8(std::uint8_t(type));
}

/** Validate magic and version; returns the type byte. */
std::uint8_t
readHeader(ByteReader &r)
{
    if (r.u32() != kProtocolMagic)
        throw SerializeError("not a casq service frame "
                             "(bad magic)",
                             0);
    const std::uint8_t version = r.u8();
    if (version != kProtocolVersion) {
        throw SerializeError(
            "unsupported protocol version " +
                std::to_string(version) + " (expected " +
                std::to_string(kProtocolVersion) + ")",
            4);
    }
    return r.u8();
}

/** Validate the header and require the expected message type. */
ByteReader
openFrame(const std::vector<std::uint8_t> &frame, MessageType want)
{
    ByteReader r(frame);
    const std::uint8_t type = readHeader(r);
    if (type != std::uint8_t(want)) {
        throw SerializeError(
            "unexpected message type " + std::to_string(type) +
                " (expected " +
                std::to_string(std::uint8_t(want)) + ")",
            5);
    }
    return r;
}

void
writeBlob(ByteWriter &w, const std::vector<std::uint8_t> &bytes)
{
    w.str(std::string(bytes.begin(), bytes.end()));
}

std::vector<std::uint8_t>
readBlob(ByteReader &r)
{
    const std::string raw = r.str();
    return std::vector<std::uint8_t>(raw.begin(), raw.end());
}

/** A trajectory count, which is never negative. */
std::int32_t
readTrajectories(ByteReader &r)
{
    const std::int32_t trajectories = r.i32();
    if (trajectories < 0)
        throw SerializeError("negative trajectory count", r.offset());
    return trajectories;
}

void
writeJobProgress(ByteWriter &w, const JobProgress &job)
{
    w.str(job.id);
    w.u8(std::uint8_t(job.state));
    w.str(job.error);
    w.u32(std::uint32_t(job.shards.size()));
    for (const ShardProgress &shard : job.shards) {
        w.u8(std::uint8_t(shard.state));
        w.u32(shard.attempts);
        w.i32(shard.worker);
        w.boolean(shard.stolen);
        w.f64(shard.wallMillis);
    }
    w.u32(job.shardsDone);
    w.u32(job.retries);
    w.i32(job.trajectories);
    w.u32(job.observables);
    w.u64(job.trajectoriesDone);
    encodeRunStats(w, job.stats);
    w.f64(job.sinceSubmitMillis);
    w.f64(job.activeMillis);
    w.f64(job.trajectoriesPerSecond);
}

JobProgress
readJobProgress(ByteReader &r)
{
    JobProgress job;
    job.id = r.str();
    const std::uint8_t state = r.u8();
    if (state > std::uint8_t(JobState::Cancelled)) {
        throw SerializeError("job state " + std::to_string(state) +
                                 " out of range",
                             r.offset());
    }
    job.state = JobState(state);
    job.error = r.str();
    const std::size_t shards = r.count(11);
    job.shards.resize(shards);
    for (ShardProgress &shard : job.shards) {
        const std::uint8_t shard_state = r.u8();
        if (shard_state > std::uint8_t(ShardState::Failed)) {
            throw SerializeError("shard state " +
                                     std::to_string(shard_state) +
                                     " out of range",
                                 r.offset());
        }
        shard.state = ShardState(shard_state);
        shard.attempts = r.u32();
        shard.worker = r.i32();
        shard.stolen = r.boolean();
        shard.wallMillis = r.f64();
    }
    job.shardsDone = r.u32();
    job.retries = r.u32();
    job.trajectories = readTrajectories(r);
    job.observables = r.u32();
    job.trajectoriesDone = r.u64();
    job.stats = decodeRunStats(r, job.trajectoriesDone);
    job.sinceSubmitMillis = r.f64();
    job.activeMillis = r.f64();
    job.trajectoriesPerSecond = r.f64();
    return job;
}

void
writeTotals(ByteWriter &w, const ServiceTotals &totals)
{
    w.u64(totals.jobsAdmitted);
    w.u64(totals.jobsDone);
    w.u64(totals.jobsFailed);
    w.u64(totals.jobsCancelled);
    w.u64(totals.shardsExecuted);
    w.u64(totals.shardFailures);
    w.u64(totals.shardRetries);
    w.u64(totals.shardsStolen);
    w.u64(totals.trajectoriesDone);
    encodeRunStats(w, totals.stats);
    w.f64(totals.upMillis);
    w.f64(totals.trajectoriesPerSecond);
}

ServiceTotals
readTotals(ByteReader &r)
{
    ServiceTotals totals;
    totals.jobsAdmitted = r.u64();
    totals.jobsDone = r.u64();
    totals.jobsFailed = r.u64();
    totals.jobsCancelled = r.u64();
    totals.shardsExecuted = r.u64();
    totals.shardFailures = r.u64();
    totals.shardRetries = r.u64();
    totals.shardsStolen = r.u64();
    totals.trajectoriesDone = r.u64();
    totals.stats = decodeRunStats(r, totals.trajectoriesDone);
    totals.upMillis = r.f64();
    totals.trajectoriesPerSecond = r.f64();
    return totals;
}

void
writeRunResult(ByteWriter &w, const RunResult &result)
{
    w.u32(std::uint32_t(result.means.size()));
    for (double mean : result.means)
        w.f64(mean);
    for (double err : result.stderrs)
        w.f64(err);
    w.i32(result.trajectories);
    encodeRunStats(w, result);
}

RunResult
readRunResult(ByteReader &r)
{
    RunResult result;
    const std::size_t observables = r.count(16);
    result.means.resize(observables);
    result.stderrs.resize(observables);
    for (double &mean : result.means)
        mean = r.f64();
    for (double &err : result.stderrs)
        err = r.f64();
    result.trajectories = readTrajectories(r);
    RunStats &stats = result;
    stats = decodeRunStats(r, std::uint64_t(result.trajectories));
    return result;
}

} // namespace

MessageType
peekMessageType(const std::vector<std::uint8_t> &frame)
{
    ByteReader r(frame);
    const std::uint8_t type = readHeader(r);
    switch (MessageType(type)) {
      case MessageType::SubmitRequest:
      case MessageType::StatusRequest:
      case MessageType::ListRequest:
      case MessageType::StatsRequest:
      case MessageType::ResultRequest:
      case MessageType::CancelRequest:
      case MessageType::ShutdownRequest:
      case MessageType::PingRequest:
      case MessageType::SubmitReply:
      case MessageType::StatusReply:
      case MessageType::ListReply:
      case MessageType::StatsReply:
      case MessageType::ResultReply:
      case MessageType::CancelReply:
      case MessageType::ShutdownReply:
      case MessageType::PingReply:
      case MessageType::ErrorReply: return MessageType(type);
    }
    throw SerializeError("unknown message type " +
                             std::to_string(type),
                         5);
}

template <MessageType Type>
std::vector<std::uint8_t>
HeaderOnly<Type>::encode() const
{
    ByteWriter w;
    writeHeader(w, Type);
    return w.take();
}

template <MessageType Type>
HeaderOnly<Type>
HeaderOnly<Type>::decode(const std::vector<std::uint8_t> &frame)
{
    openFrame(frame, Type).requireEnd();
    return {};
}

template struct HeaderOnly<MessageType::ListRequest>;
template struct HeaderOnly<MessageType::StatsRequest>;
template struct HeaderOnly<MessageType::ShutdownRequest>;
template struct HeaderOnly<MessageType::PingRequest>;
template struct HeaderOnly<MessageType::SubmitReply>;
template struct HeaderOnly<MessageType::ShutdownReply>;
template struct HeaderOnly<MessageType::PingReply>;

// -------------------------------------------------------- requests

std::vector<std::uint8_t>
SubmitRequest::encode() const
{
    ByteWriter w;
    writeHeader(w, MessageType::SubmitRequest);
    w.str(job.id);
    writeBlob(w, job.work.encode());
    return w.take();
}

SubmitRequest
SubmitRequest::decode(const std::vector<std::uint8_t> &frame)
{
    ByteReader r = openFrame(frame, MessageType::SubmitRequest);
    SubmitRequest request;
    request.job.id = r.str();
    const std::vector<std::uint8_t> spec = readBlob(r);
    r.requireEnd();
    request.job.work = ShardSpec::decode(spec);
    return request;
}

std::vector<std::uint8_t>
StatusRequest::encode() const
{
    ByteWriter w;
    writeHeader(w, MessageType::StatusRequest);
    w.str(id);
    return w.take();
}

StatusRequest
StatusRequest::decode(const std::vector<std::uint8_t> &frame)
{
    ByteReader r = openFrame(frame, MessageType::StatusRequest);
    StatusRequest request;
    request.id = r.str();
    r.requireEnd();
    return request;
}

std::vector<std::uint8_t>
ResultRequest::encode() const
{
    ByteWriter w;
    writeHeader(w, MessageType::ResultRequest);
    w.str(id);
    w.boolean(wait);
    return w.take();
}

ResultRequest
ResultRequest::decode(const std::vector<std::uint8_t> &frame)
{
    ByteReader r = openFrame(frame, MessageType::ResultRequest);
    ResultRequest request;
    request.id = r.str();
    request.wait = r.boolean();
    r.requireEnd();
    return request;
}

std::vector<std::uint8_t>
CancelRequest::encode() const
{
    ByteWriter w;
    writeHeader(w, MessageType::CancelRequest);
    w.str(id);
    return w.take();
}

CancelRequest
CancelRequest::decode(const std::vector<std::uint8_t> &frame)
{
    ByteReader r = openFrame(frame, MessageType::CancelRequest);
    CancelRequest request;
    request.id = r.str();
    r.requireEnd();
    return request;
}

// --------------------------------------------------------- replies

std::vector<std::uint8_t>
StatusReply::encode() const
{
    ByteWriter w;
    writeHeader(w, MessageType::StatusReply);
    writeJobProgress(w, job);
    return w.take();
}

StatusReply
StatusReply::decode(const std::vector<std::uint8_t> &frame)
{
    ByteReader r = openFrame(frame, MessageType::StatusReply);
    StatusReply reply;
    reply.job = readJobProgress(r);
    r.requireEnd();
    return reply;
}

std::vector<std::uint8_t>
ListReply::encode() const
{
    ByteWriter w;
    writeHeader(w, MessageType::ListReply);
    w.u32(std::uint32_t(jobs.size()));
    for (const JobProgress &job : jobs)
        writeJobProgress(w, job);
    return w.take();
}

ListReply
ListReply::decode(const std::vector<std::uint8_t> &frame)
{
    ByteReader r = openFrame(frame, MessageType::ListReply);
    ListReply reply;
    const std::size_t jobs = r.count(1);
    reply.jobs.reserve(jobs);
    for (std::size_t k = 0; k < jobs; ++k)
        reply.jobs.push_back(readJobProgress(r));
    r.requireEnd();
    return reply;
}

std::vector<std::uint8_t>
StatsReply::encode() const
{
    ByteWriter w;
    writeHeader(w, MessageType::StatsReply);
    writeTotals(w, totals);
    return w.take();
}

StatsReply
StatsReply::decode(const std::vector<std::uint8_t> &frame)
{
    ByteReader r = openFrame(frame, MessageType::StatsReply);
    StatsReply reply;
    reply.totals = readTotals(r);
    r.requireEnd();
    return reply;
}

std::vector<std::uint8_t>
ResultReply::encode() const
{
    ByteWriter w;
    writeHeader(w, MessageType::ResultReply);
    writeJobProgress(w, job);
    writeRunResult(w, result);
    return w.take();
}

ResultReply
ResultReply::decode(const std::vector<std::uint8_t> &frame)
{
    ByteReader r = openFrame(frame, MessageType::ResultReply);
    ResultReply reply;
    reply.job = readJobProgress(r);
    reply.result = readRunResult(r);
    r.requireEnd();
    return reply;
}

std::vector<std::uint8_t>
CancelReply::encode() const
{
    ByteWriter w;
    writeHeader(w, MessageType::CancelReply);
    w.u8(std::uint8_t(outcome));
    return w.take();
}

CancelReply
CancelReply::decode(const std::vector<std::uint8_t> &frame)
{
    ByteReader r = openFrame(frame, MessageType::CancelReply);
    CancelReply reply;
    const std::uint8_t outcome = r.u8();
    if (outcome >
        std::uint8_t(JobService::CancelOutcome::AlreadyTerminal)) {
        throw SerializeError("cancel outcome " +
                                 std::to_string(outcome) +
                                 " out of range",
                             r.offset());
    }
    reply.outcome = JobService::CancelOutcome(outcome);
    r.requireEnd();
    return reply;
}

std::vector<std::uint8_t>
ErrorReply::encode() const
{
    ByteWriter w;
    writeHeader(w, MessageType::ErrorReply);
    w.u8(std::uint8_t(kind));
    w.str(message);
    return w.take();
}

ErrorReply
ErrorReply::decode(const std::vector<std::uint8_t> &frame)
{
    ByteReader r = openFrame(frame, MessageType::ErrorReply);
    ErrorReply reply;
    const std::uint8_t kind = r.u8();
    if (kind > std::uint8_t(Kind::Payload)) {
        throw SerializeError("error kind " + std::to_string(kind) +
                                 " out of range",
                             r.offset());
    }
    reply.kind = Kind(kind);
    reply.message = r.str();
    r.requireEnd();
    return reply;
}

void
ErrorReply::raise() const
{
    switch (kind) {
      case Kind::Admission: throw AdmissionError(message);
      case Kind::Backpressure: throw BackpressureError(message);
      case Kind::Payload: throw SerializeError(message);
      case Kind::Service: break;
    }
    throw ServiceError(message);
}

} // namespace casq
