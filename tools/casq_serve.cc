/**
 * @file
 * casq_serve: the job-service daemon.
 *
 * Listens on a local AF_UNIX socket for casq_job clients and hands
 * every request to one JobService, which admits jobs into its
 * bounded queue, executes their shards on a pool of worker slots
 * with retry and work-stealing, and answers status/result queries
 * from the same job records -- see docs/service.md.
 *
 *   $ casq_serve --socket /tmp/casq.sock --slots 2 &
 *   $ casq_job submit --socket /tmp/casq.sock --id demo \
 *         --qubits 6 --depth 8 --instances 8 --traj 120 --shards 4
 *   $ casq_job result --socket /tmp/casq.sock --id demo --wait
 *
 * Shards run in-process by default; --spawn executes each shard as
 * a `casq_shard run` subprocess instead, which is what makes a
 * worker death a survivable event (the service re-queues the
 * shard; bit-determinism makes the re-execution merge-hazard-free).
 * --kill-nth-spawn N SIGKILLs the Nth spawned subprocess after
 * --kill-delay-ms (0: before it can run at all), so CI can rehearse
 * exactly that failure.
 */

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "bench_common.hh"
#include "service/job_service.hh"
#include "service/protocol.hh"
#include "service/socket.hh"
#include "tool_common.hh"

using namespace casq;

namespace {

int
usage(std::ostream &os, int code)
{
    os << "usage: casq_serve --socket PATH [options]\n"
          "\n"
          "options:\n"
          "  --socket PATH        AF_UNIX socket to listen on\n"
          "  --slots N            worker slots (default 2)\n"
          "  --queue-capacity N   admission queue bound "
          "(default 64)\n"
          "  --max-attempts N     executions per shard before the\n"
          "                       job fails (default 3)\n"
          "  --threads N          engine threads per shard "
          "(default 1)\n"
          "  --no-steal           disable straggler re-execution\n"
          "  --straggler-factor F steal after F x median shard\n"
          "                       wall time (default 4)\n"
          "  --straggler-min-ms M minimum straggler age "
          "(default 250)\n"
          "  --spawn              run each shard as a `casq_shard\n"
          "                       run` subprocess\n"
          "  --shard-tool PATH    casq_shard binary for --spawn\n"
          "                       (default: next to casq_serve)\n"
          "  --work-dir DIR       spool directory for --spawn\n"
          "                       payloads (default: mkdtemp)\n"
          "  --kill-nth-spawn N   chaos: SIGKILL the Nth spawned\n"
          "                       subprocess (0 = never)\n"
          "  --kill-delay-ms M    delay before the chaos kill\n"
          "                       (default 200; 0 = at spawn)\n";
    return code;
}

/**
 * Executes shards as `casq_shard run` subprocesses, spooling the
 * spec/result payloads through workDir.  Any subprocess failure --
 * nonzero exit, death by signal (the chaos kill), or a corrupt
 * result payload -- throws ShardExecutionError, which the
 * scheduler's retry budget absorbs.
 */
class SubprocessShardRunner : public ShardRunner
{
  public:
    struct Options
    {
        std::string shardTool;
        std::string workDir;
        int threads = 1;
        long killNthSpawn = 0; //!< 0 = chaos disabled
        long killDelayMs = 200;
    };

    explicit SubprocessShardRunner(Options options)
        : _options(std::move(options))
    {
    }

    ShardResult
    run(const ShardSpec &spec, const ShardRunContext &ctx) override
    {
        const std::string base =
            _options.workDir + "/" + ctx.jobId + "." +
            std::to_string(ctx.shardIndex) + ".a" +
            std::to_string(ctx.attempt);
        const std::string spec_path = base + ".spec";
        const std::string result_path = base + ".result";
        writeBinaryFile(spec_path, spec.encode());

        const std::string threads =
            std::to_string(_options.threads);
        const pid_t pid = ::fork();
        if (pid < 0) {
            ::unlink(spec_path.c_str());
            throw ShardExecutionError(
                std::string("fork() failed: ") +
                std::strerror(errno));
        }
        if (pid == 0) {
            ::execl(_options.shardTool.c_str(), "casq_shard",
                    "run", "--spec", spec_path.c_str(), "--out",
                    result_path.c_str(), "--threads",
                    threads.c_str(),
                    static_cast<char *>(nullptr));
            _exit(127);
        }

        const long spawn = ++_spawned;
        if (_options.killNthSpawn > 0 &&
            spawn == _options.killNthSpawn) {
            // Kill before waiting: a child that already exited is
            // an unreaped zombie, so the kill is harmless and
            // waitpid still reports its own exit.
            const long delay = _options.killDelayMs;
            std::cerr << "chaos: will SIGKILL spawn #" << spawn
                      << " (pid " << pid << ") after " << delay
                      << " ms\n";
            if (delay > 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
            }
            ::kill(pid, SIGKILL);
        }

        int status = 0;
        for (;;) {
            if (::waitpid(pid, &status, 0) >= 0)
                break;
            if (errno == EINTR)
                continue;
            ::unlink(spec_path.c_str());
            throw ShardExecutionError(
                std::string("waitpid() failed: ") +
                std::strerror(errno));
        }
        ::unlink(spec_path.c_str());

        const std::string who = "casq_shard run (job '" +
                                ctx.jobId + "' shard " +
                                std::to_string(ctx.shardIndex) +
                                " attempt " +
                                std::to_string(ctx.attempt) + ")";
        if (WIFSIGNALED(status)) {
            ::unlink(result_path.c_str());
            throw ShardExecutionError(
                who + " was killed by signal " +
                std::to_string(WTERMSIG(status)));
        }
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            ::unlink(result_path.c_str());
            throw ShardExecutionError(
                who + " exited with status " +
                std::to_string(WIFEXITED(status)
                                   ? WEXITSTATUS(status)
                                   : -1));
        }
        try {
            ShardResult result =
                tool::decodePayloadFile<ShardResult>(result_path);
            ::unlink(result_path.c_str());
            return result;
        } catch (const SerializeError &err) {
            ::unlink(result_path.c_str());
            // Corrupt result payload: retryable like any other
            // worker failure (the rendering already carries the
            // file + byte offset).
            throw ShardExecutionError(who + ": " + err.what());
        }
    }

  private:
    Options _options;
    std::atomic<long> _spawned{0};
};

/** Map an exception to the ErrorReply taxonomy. */
ErrorReply
errorReplyFor(const std::exception &err)
{
    ErrorReply reply;
    reply.message = err.what();
    if (dynamic_cast<const BackpressureError *>(&err))
        reply.kind = ErrorReply::Kind::Backpressure;
    else if (dynamic_cast<const AdmissionError *>(&err))
        reply.kind = ErrorReply::Kind::Admission;
    else if (const auto *payload =
                 dynamic_cast<const SerializeError *>(&err)) {
        reply.kind = ErrorReply::Kind::Payload;
        reply.message = describePayloadError("", *payload);
    }
    return reply;
}

/** Handle one request frame; sets `shutdown` on ShutdownRequest. */
std::vector<std::uint8_t>
dispatch(JobService &service,
         const std::vector<std::uint8_t> &frame, bool &shutdown)
{
    switch (peekMessageType(frame)) {
      case MessageType::SubmitRequest: {
        SubmitRequest request = SubmitRequest::decode(frame);
        service.submit(std::move(request.job));
        return SubmitReply{}.encode();
      }
      case MessageType::StatusRequest: {
        const StatusRequest request = StatusRequest::decode(frame);
        const auto snapshot = service.status(request.id);
        if (!snapshot)
            throw ServiceError("unknown job '" + request.id + "'");
        return StatusReply{*snapshot}.encode();
      }
      case MessageType::ListRequest: {
        (void)ListRequest::decode(frame);
        return ListReply{service.list()}.encode();
      }
      case MessageType::StatsRequest: {
        (void)StatsRequest::decode(frame);
        return StatsReply{service.totals()}.encode();
      }
      case MessageType::ResultRequest: {
        const ResultRequest request = ResultRequest::decode(frame);
        ResultReply reply;
        if (request.wait) {
            reply.job = service.waitTerminal(request.id);
        } else {
            const auto snapshot = service.status(request.id);
            if (!snapshot) {
                throw ServiceError("unknown job '" + request.id +
                                   "'");
            }
            if (!jobStateTerminal(snapshot->state)) {
                throw ServiceError(
                    "job '" + request.id + "' is still " +
                    jobStateName(snapshot->state) +
                    " (use --wait)");
            }
            reply.job = *snapshot;
        }
        if (reply.job.state == JobState::Done)
            reply.result = service.result(request.id);
        return reply.encode();
      }
      case MessageType::CancelRequest: {
        const CancelRequest request = CancelRequest::decode(frame);
        return CancelReply{service.cancel(request.id)}.encode();
      }
      case MessageType::ShutdownRequest: {
        (void)ShutdownRequest::decode(frame);
        shutdown = true;
        return ShutdownReply{}.encode();
      }
      case MessageType::PingRequest: {
        (void)PingRequest::decode(frame);
        return PingReply{}.encode();
      }
      default:
        throw SerializeError(
            "request frame carries a reply message type");
    }
}

void
handleConnection(LocalSocket sock, JobService &service,
                 LocalListener &listener)
{
    try {
        for (;;) {
            const auto frame = sock.recvFrame();
            if (!frame)
                return; // client hung up
            std::vector<std::uint8_t> reply;
            bool shutdown = false;
            try {
                reply = dispatch(service, *frame, shutdown);
            } catch (const std::exception &err) {
                reply = errorReplyFor(err).encode();
            }
            sock.sendFrame(reply);
            if (shutdown) {
                listener.close();
                return;
            }
        }
    } catch (const std::exception &err) {
        // Transport trouble on one connection never takes the
        // daemon down.
        std::cerr << "connection error: " << err.what() << "\n";
    }
}

LocalListener *g_listener = nullptr;

void
onSignal(int)
{
    if (g_listener)
        g_listener->close(); // atomic store + shutdown(): safe
}

int
serveMain(int argc, char **argv)
{
    std::string socket_path;
    std::string work_dir;
    std::string shard_tool;
    JobServiceOptions options;
    bool spawn = false;
    long kill_nth = 0;
    long kill_delay_ms = 200;

    constexpr long long kMaxInt = std::numeric_limits<int>::max();
    for (int i = 1; i < argc; ++i) {
        if (const char *v = tool::flagValue(argc, argv, i, "--socket")) {
            socket_path = v;
        } else if (const char *v = tool::flagValue(argc, argv, i, "--slots")) {
            options.scheduler.slots = unsigned(
                bench::checkedInt("--slots", v, 1, 4096));
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--queue-capacity")) {
            options.queueCapacity = std::size_t(bench::checkedInt(
                "--queue-capacity", v, 1, kMaxInt));
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--max-attempts")) {
            options.scheduler.maxAttempts =
                std::uint32_t(bench::checkedInt("--max-attempts",
                                                v, 1, kMaxInt));
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--threads")) {
            options.threadsPerShard =
                int(bench::checkedInt("--threads", v, 0, 4096));
        } else if (std::strcmp(argv[i], "--no-steal") == 0) {
            options.scheduler.workStealing = false;
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--straggler-factor")) {
            options.scheduler.stragglerFactor = double(
                bench::checkedInt("--straggler-factor", v, 1,
                                  kMaxInt));
        } else if (const char *v = tool::flagValue(argc, argv, i,
                                         "--straggler-min-ms")) {
            options.scheduler.stragglerMinMillis = double(
                bench::checkedInt("--straggler-min-ms", v, 0,
                                  kMaxInt));
        } else if (std::strcmp(argv[i], "--spawn") == 0) {
            spawn = true;
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--shard-tool")) {
            shard_tool = v;
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--work-dir")) {
            work_dir = v;
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--kill-nth-spawn")) {
            kill_nth = long(bench::checkedInt("--kill-nth-spawn",
                                              v, 0, kMaxInt));
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--kill-delay-ms")) {
            kill_delay_ms = long(bench::checkedInt(
                "--kill-delay-ms", v, 0, kMaxInt));
        } else if (std::strcmp(argv[i], "--help") == 0) {
            return usage(std::cout, 0);
        } else {
            std::cerr << "unknown argument '" << argv[i] << "'\n";
            return usage(std::cerr, 1);
        }
    }
    if (socket_path.empty()) {
        std::cerr << "need --socket PATH\n";
        return usage(std::cerr, 1);
    }

    std::unique_ptr<ShardRunner> runner;
    std::string spool;
    if (spawn) {
        SubprocessShardRunner::Options sub;
        if (shard_tool.empty()) {
            // Default: casq_shard next to this binary.
            const std::string self = argv[0];
            const std::size_t slash = self.rfind('/');
            sub.shardTool =
                (slash == std::string::npos
                     ? std::string()
                     : self.substr(0, slash + 1)) +
                "casq_shard";
        } else {
            sub.shardTool = shard_tool;
        }
        if (work_dir.empty()) {
            char tmpl[] = "/tmp/casq-serve.XXXXXX";
            if (!::mkdtemp(tmpl)) {
                throw ServiceError(
                    std::string("mkdtemp() failed: ") +
                    std::strerror(errno));
            }
            spool = tmpl;
        } else {
            spool = work_dir;
        }
        sub.workDir = spool;
        sub.threads = std::max(1, options.threadsPerShard);
        sub.killNthSpawn = kill_nth;
        sub.killDelayMs = kill_delay_ms;
        runner = std::make_unique<SubprocessShardRunner>(
            std::move(sub));
    }

    JobService service(options, std::move(runner));
    LocalListener listener =
        LocalListener::bind(socket_path);
    g_listener = &listener;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    std::signal(SIGPIPE, SIG_IGN);

    std::cerr << "casq_serve: listening on " << socket_path
              << " (" << options.scheduler.slots << " slot"
              << (options.scheduler.slots == 1 ? "" : "s")
              << ", queue capacity " << options.queueCapacity
              << (spawn ? ", subprocess shards" : "") << ")\n";

    std::vector<std::thread> connections;
    for (;;) {
        LocalSocket sock = listener.accept();
        if (!sock.valid())
            break;
        connections.emplace_back(
            [&service, &listener,
             conn = std::move(sock)]() mutable {
                handleConnection(std::move(conn), service,
                                 listener);
            });
    }

    // Stop accepting, then unblock waiters and drain the
    // worker slots before the connection threads join.
    service.shutdown();
    for (std::thread &connection : connections)
        connection.join();
    g_listener = nullptr;
    if (!spool.empty() && work_dir.empty())
        ::rmdir(spool.c_str()); // best effort; may be nonempty
    std::cerr << "casq_serve: shut down\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return tool::runTool("casq_serve",
                         [&] { return serveMain(argc, argv); });
}
