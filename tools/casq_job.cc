/**
 * @file
 * casq_job: client for the casq_serve daemon.
 *
 *   $ casq_job submit --socket /tmp/casq.sock --id demo \
 *         --qubits 6 --depth 8 --instances 8 --traj 120 --shards 4
 *   $ casq_job status --socket /tmp/casq.sock --id demo
 *   $ casq_job result --socket /tmp/casq.sock --id demo --wait
 *   $ casq_job list   --socket /tmp/casq.sock
 *   $ casq_job stats  --socket /tmp/casq.sock
 *   $ casq_job cancel --socket /tmp/casq.sock --id demo
 *   $ casq_job shutdown --socket /tmp/casq.sock
 *
 * `submit` builds the same synthetic-chain workload as `casq_shard
 * plan` (and casq_compile), and `result` prints the same
 * "<Z_q> = mean +- stderr" estimate lines as `casq_compile
 * --simulate` -- with --hexfloat they are bit-exact, so a job
 * served through the daemon diffs clean against a single-process
 * run of the same spec.  Estimates go to stdout, narration to
 * stderr.
 *
 * Exit codes: 0 success, 1 failure, 75 (EX_TEMPFAIL) backpressure
 * -- the queue was full, nothing is wrong with the job; back off
 * and resubmit.
 */

#include <cstring>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "service/protocol.hh"
#include "service/socket.hh"
#include "run_flags.hh"
#include "tool_common.hh"

using namespace casq;

namespace {

constexpr int kExitBackpressure = 75; //!< EX_TEMPFAIL

int
usage(std::ostream &os, int code)
{
    os << "usage: casq_job <command> --socket PATH [options]\n"
          "\n"
          "commands:\n"
          "  submit  --id ID [run flags] [--shards S]\n"
          "  status  --id ID\n"
          "  list\n"
          "  stats\n"
          "  result  --id ID [--wait] [--hexfloat]\n"
          "  cancel  --id ID\n"
          "  shutdown\n"
          "  ping\n"
          "\n";
    tool::printRunFlagUsage(os, tool::RunFlags{});
    return code;
}

/** One request/reply round trip; ErrorReply rethrows typed. */
std::vector<std::uint8_t>
roundTrip(const std::string &socket_path,
          const std::vector<std::uint8_t> &request)
{
    LocalSocket sock = LocalSocket::connect(socket_path);
    sock.sendFrame(request);
    const auto reply = sock.recvFrame();
    if (!reply) {
        throw ServiceError(
            "daemon closed the connection without a reply");
    }
    if (peekMessageType(*reply) == MessageType::ErrorReply)
        ErrorReply::decode(*reply).raise();
    return *reply;
}

void
printJob(const JobProgress &job)
{
    std::cout << "job " << job.id << ": " << jobStateName(job.state)
              << " (" << job.shardsDone << "/" << job.shards.size()
              << " shards";
    if (job.retries)
        std::cout << ", " << job.retries << " retried";
    std::cout << ")";
    if (job.trajectoriesDone) {
        std::cout << " " << job.trajectoriesDone << "/"
                  << job.trajectories << " trajectories";
        if (job.stats.prefixStateHits)
            std::cout << " (" << job.stats.prefixStateHits
                      << " prefix-forked)";
        if (job.trajectoriesPerSecond > 0.0) {
            std::cout << " @ " << std::fixed
                      << std::setprecision(1)
                      << job.trajectoriesPerSecond << "/s"
                      << std::defaultfloat;
        }
    }
    if (!job.error.empty())
        std::cout << " -- " << job.error;
    std::cout << "\n";
}

void
printShards(const JobProgress &job)
{
    for (std::size_t k = 0; k < job.shards.size(); ++k) {
        const ShardProgress &shard = job.shards[k];
        std::cout << "  shard " << k << ": "
                  << shardStateName(shard.state);
        if (shard.worker >= 0)
            std::cout << " worker " << shard.worker;
        if (shard.attempts > 1)
            std::cout << " attempts " << shard.attempts;
        if (shard.stolen)
            std::cout << " (stolen)";
        if (shard.state == ShardState::Done) {
            std::cout << " " << std::fixed << std::setprecision(1)
                      << shard.wallMillis << " ms"
                      << std::defaultfloat;
        }
        std::cout << "\n";
    }
}

int
cmdSubmit(const std::string &socket_path, int argc, char **argv)
{
    JobSpec job;
    tool::RunFlags run;
    for (int i = 2; i < argc; ++i) {
        if (run.consume(argc, argv, i))
            continue;
        if (tool::flagValue(argc, argv, i, "--socket")) {
            // consumed by main
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--id")) {
            job.id = v;
        } else if (const char *v =
                       tool::flagValue(argc, argv, i, "--shards")) {
            run.spec.shardCount = std::uint32_t(
                bench::checkedInt("--shards", v, 1, 1 << 20));
        } else {
            std::cerr << "submit: unknown argument '" << argv[i]
                      << "'\n";
            return usage(std::cerr, 1);
        }
    }
    if (job.id.empty()) {
        std::cerr << "submit: need --id ID\n";
        return 1;
    }

    job.work = run.finish();

    SubmitRequest request;
    request.job = std::move(job);
    const auto frame = request.encode();
    (void)SubmitReply::decode(roundTrip(socket_path, frame));
    std::cerr << "submitted job '" << request.job.id << "' ("
              << request.job.work.instances << " instances, "
              << request.job.work.trajectories
              << " trajectories over " << request.job.shards()
              << " shard"
              << (request.job.shards() == 1 ? "" : "s") << ")\n";
    return 0;
}

int
cmdStatus(const std::string &socket_path, const std::string &id)
{
    const StatusReply reply = StatusReply::decode(
        roundTrip(socket_path, StatusRequest{id}.encode()));
    printJob(reply.job);
    printShards(reply.job);
    return 0;
}

int
cmdList(const std::string &socket_path)
{
    const ListReply reply = ListReply::decode(
        roundTrip(socket_path, ListRequest{}.encode()));
    if (reply.jobs.empty()) {
        std::cout << "no jobs\n";
        return 0;
    }
    for (const JobProgress &job : reply.jobs)
        printJob(job);
    return 0;
}

int
cmdStats(const std::string &socket_path)
{
    const StatsReply reply = StatsReply::decode(
        roundTrip(socket_path, StatsRequest{}.encode()));
    const ServiceTotals &t = reply.totals;
    std::cout << "jobsAdmitted " << t.jobsAdmitted << "\n"
              << "jobsDone " << t.jobsDone << "\n"
              << "jobsFailed " << t.jobsFailed << "\n"
              << "jobsCancelled " << t.jobsCancelled << "\n"
              << "shardsExecuted " << t.shardsExecuted << "\n"
              << "shardFailures " << t.shardFailures << "\n"
              << "shardRetries " << t.shardRetries << "\n"
              << "shardsStolen " << t.shardsStolen << "\n"
              << "trajectoriesDone " << t.trajectoriesDone << "\n"
              << "stabilizerTrajectories "
              << t.stats.stabilizerTrajectories << "\n"
              << "prefixStateHits " << t.stats.prefixStateHits << "\n"
              << std::fixed << std::setprecision(1) << "upMillis "
              << t.upMillis << "\n"
              << "trajectoriesPerSecond "
              << t.trajectoriesPerSecond << "\n";
    return 0;
}

int
cmdResult(const std::string &socket_path, const std::string &id,
          bool wait, bool hexfloat)
{
    ResultRequest request;
    request.id = id;
    request.wait = wait;
    const ResultReply reply = ResultReply::decode(
        roundTrip(socket_path, request.encode()));

    if (reply.job.state != JobState::Done) {
        std::cerr << "job '" << id << "' "
                  << jobStateName(reply.job.state)
                  << (reply.job.error.empty()
                          ? std::string()
                          : ": " + reply.job.error)
                  << "\n";
        return 1;
    }
    std::cerr << "job '" << id << "' done: "
              << reply.result.trajectories << " trajectories, "
              << reply.result.means.size() << " observable"
              << (reply.result.means.size() == 1 ? "" : "s");
    if (reply.job.retries)
        std::cerr << ", " << reply.job.retries
                  << " shard retry/retries absorbed";
    std::cerr << "\n";

    // Exactly casq_compile --simulate's estimate lines; with
    // --hexfloat the bytes gate cross-process determinism in CI.
    if (hexfloat)
        std::cout << std::hexfloat;
    else
        std::cout << std::setprecision(6);
    for (std::size_t q = 0; q < reply.result.means.size(); ++q)
        std::cout << "<Z_" << q << "> = " << reply.result.means[q]
                  << " +- " << reply.result.stderrs[q] << "\n";
    return 0;
}

int
cmdCancel(const std::string &socket_path, const std::string &id)
{
    const CancelReply reply = CancelReply::decode(
        roundTrip(socket_path, CancelRequest{id}.encode()));
    switch (reply.outcome) {
      case JobService::CancelOutcome::Cancelled:
        std::cerr << "cancelled job '" << id << "'\n";
        return 0;
      case JobService::CancelOutcome::AlreadyTerminal:
        std::cerr << "job '" << id << "' already finished\n";
        return 0;
      case JobService::CancelOutcome::Unknown: break;
    }
    std::cerr << "unknown job '" << id << "'\n";
    return 1;
}

int
jobMain(int argc, char **argv)
{
    if (argc < 2)
        return usage(std::cerr, 1);
    const std::string command = argv[1];
    if (command == "--help" || command == "help")
        return usage(std::cout, 0);

    std::string socket_path;
    std::string id;
    bool wait = false;
    bool hexfloat = false;
    for (int i = 2; i < argc; ++i) {
        if (const char *v =
                tool::flagValue(argc, argv, i, "--socket"))
            socket_path = v;
        else if (const char *v = tool::flagValue(argc, argv, i, "--id"))
            id = v;
        else if (std::strcmp(argv[i], "--wait") == 0)
            wait = true;
        else if (std::strcmp(argv[i], "--hexfloat") == 0)
            hexfloat = true;
    }
    if (socket_path.empty()) {
        std::cerr << "need --socket PATH\n";
        return usage(std::cerr, 1);
    }

    if (command == "submit")
        return cmdSubmit(socket_path, argc, argv);
    if (command == "status" || command == "result" ||
        command == "cancel") {
        if (id.empty()) {
            std::cerr << command << ": need --id ID\n";
            return 1;
        }
    }
    if (command == "status")
        return cmdStatus(socket_path, id);
    if (command == "list")
        return cmdList(socket_path);
    if (command == "stats")
        return cmdStats(socket_path);
    if (command == "result")
        return cmdResult(socket_path, id, wait, hexfloat);
    if (command == "cancel")
        return cmdCancel(socket_path, id);
    if (command == "shutdown") {
        (void)ShutdownReply::decode(
            roundTrip(socket_path, ShutdownRequest{}.encode()));
        std::cerr << "daemon shutting down\n";
        return 0;
    }
    if (command == "ping") {
        (void)PingReply::decode(
            roundTrip(socket_path, PingRequest{}.encode()));
        std::cerr << "pong\n";
        return 0;
    }
    std::cerr << "unknown command '" << command << "'\n";
    return usage(std::cerr, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    return tool::runTool("casq_job", [&]() -> int {
        try {
            return jobMain(argc, argv);
        } catch (const BackpressureError &err) {
            std::cerr << "casq_job: " << err.what() << "\n";
            return kExitBackpressure;
        }
    });
}
