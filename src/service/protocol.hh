/**
 * @file
 * Wire protocol between casq_job (client) and casq_serve (daemon).
 *
 * Transport framing (service/socket.hh) delivers whole frames; this
 * header defines what a frame contains.  Every message is a
 * versioned, endian-stable payload in the house serialization
 * format (common/serialize.hh):
 *
 *   u32 magic 'CSQP' | u8 version | u8 type | type-specific body
 *
 * with the body encoded field-by-field little-endian.  Job specs
 * travel as embedded ShardSpec payloads -- the exact bytes
 * `casq_shard plan` writes -- so the daemon re-validates them with
 * the same decoder and the job fingerprint machinery applies
 * unchanged.
 *
 * Malformed frames (bad magic, version skew, truncation, trailing
 * bytes, out-of-range enums) raise SerializeError with a byte
 * offset; both tools render those through describePayloadError().
 * Request/reply pairing is strict: every request type has exactly
 * one success reply type, and any request can be answered with
 * ErrorReply instead.
 */

#ifndef CASQ_SERVICE_PROTOCOL_HH
#define CASQ_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "service/job_service.hh"

namespace casq {

/** 'CSQP' little-endian. */
constexpr std::uint32_t kProtocolMagic = 0x50515343u;

/**
 * Protocol version history:
 *   1 -- initial protocol.
 *   2 -- JobProgress and ServiceTotals carry prefixStateHits
 *        (trajectories forked from a prefix-state checkpoint).
 *   3 -- job specs embed shard payloads in format v4, which carries
 *        the full serialized noise configuration instead of a
 *        3-value recipe byte (docs/noise.md).
 *   4 -- JobProgress, ServiceTotals and the ResultReply's RunResult
 *        carry one RunStats block (encodeRunStats, which adds the
 *        tableau-routed trajectory count); job specs embed shard
 *        payloads in format v5.
 */
constexpr std::uint8_t kProtocolVersion = 4;

enum class MessageType : std::uint8_t
{
    // requests (client -> daemon)
    SubmitRequest = 1,
    StatusRequest = 2,
    ListRequest = 3,
    StatsRequest = 4,
    ResultRequest = 5,
    CancelRequest = 6,
    ShutdownRequest = 7,
    PingRequest = 8,

    // replies (daemon -> client)
    SubmitReply = 65,
    StatusReply = 66,
    ListReply = 67,
    StatsReply = 68,
    ResultReply = 69,
    CancelReply = 70,
    ShutdownReply = 71,
    PingReply = 72,
    ErrorReply = 127,
};

/**
 * Validate a frame's magic + version and return its message type
 * without consuming the body (the dispatcher peeks, then hands the
 * frame to the right decoder).  Throws SerializeError.
 */
MessageType peekMessageType(const std::vector<std::uint8_t> &frame);

/**
 * A message that is its header alone: the list, stats, shutdown and
 * ping requests and the submit, shutdown and ping replies.
 */
template <MessageType Type>
struct HeaderOnly
{
    std::vector<std::uint8_t> encode() const;
    static HeaderOnly decode(const std::vector<std::uint8_t> &frame);
};

// -------------------------------------------------------- requests

struct SubmitRequest
{
    JobSpec job;

    std::vector<std::uint8_t> encode() const;
    static SubmitRequest decode(const std::vector<std::uint8_t> &frame);
};

struct StatusRequest
{
    std::string id;

    std::vector<std::uint8_t> encode() const;
    static StatusRequest decode(const std::vector<std::uint8_t> &frame);
};

using ListRequest = HeaderOnly<MessageType::ListRequest>;
using StatsRequest = HeaderOnly<MessageType::StatsRequest>;

struct ResultRequest
{
    std::string id;
    bool wait = false; //!< block until the job is terminal

    std::vector<std::uint8_t> encode() const;
    static ResultRequest decode(const std::vector<std::uint8_t> &frame);
};

struct CancelRequest
{
    std::string id;

    std::vector<std::uint8_t> encode() const;
    static CancelRequest decode(const std::vector<std::uint8_t> &frame);
};

using ShutdownRequest = HeaderOnly<MessageType::ShutdownRequest>;
using PingRequest = HeaderOnly<MessageType::PingRequest>;

// --------------------------------------------------------- replies

using SubmitReply = HeaderOnly<MessageType::SubmitReply>;

struct StatusReply
{
    JobProgress job;

    std::vector<std::uint8_t> encode() const;
    static StatusReply decode(const std::vector<std::uint8_t> &frame);
};

struct ListReply
{
    std::vector<JobProgress> jobs;

    std::vector<std::uint8_t> encode() const;
    static ListReply decode(const std::vector<std::uint8_t> &frame);
};

struct StatsReply
{
    ServiceTotals totals;

    std::vector<std::uint8_t> encode() const;
    static StatsReply decode(const std::vector<std::uint8_t> &frame);
};

struct ResultReply
{
    JobProgress job;   //!< terminal snapshot
    RunResult result;  //!< merged estimate (Done jobs)

    std::vector<std::uint8_t> encode() const;
    static ResultReply decode(const std::vector<std::uint8_t> &frame);
};

struct CancelReply
{
    JobService::CancelOutcome outcome =
        JobService::CancelOutcome::Unknown;

    std::vector<std::uint8_t> encode() const;
    static CancelReply decode(const std::vector<std::uint8_t> &frame);
};

using ShutdownReply = HeaderOnly<MessageType::ShutdownReply>;
using PingReply = HeaderOnly<MessageType::PingReply>;

/**
 * Any request can be answered with this instead of its success
 * reply.  `kind` preserves the error taxonomy across the wire so
 * the client can rethrow the matching exception type (backpressure
 * is retryable, admission is not).
 */
struct ErrorReply
{
    enum class Kind : std::uint8_t
    {
        Service = 0,      //!< ServiceError
        Admission = 1,    //!< AdmissionError
        Backpressure = 2, //!< BackpressureError
        Payload = 3,      //!< SerializeError while decoding
    };

    Kind kind = Kind::Service;
    std::string message;

    std::vector<std::uint8_t> encode() const;
    static ErrorReply decode(const std::vector<std::uint8_t> &frame);

    /** Rethrow as the exception type `kind` names. */
    [[noreturn]] void raise() const;
};

} // namespace casq

#endif // CASQ_SERVICE_PROTOCOL_HH
