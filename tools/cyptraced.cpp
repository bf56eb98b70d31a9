// cyptraced — crash-recoverable job daemon for the CYPRESS pipeline.
//
//   cyptraced serve --socket PATH --spool DIR [--recover]
//             [--queue N] [--concurrent N] [--client-cap N]
//             [--attempts N] [--deadline MS] [--threads T]
//             [--crash-after-segments N]
//       Run the daemon: accept run/compress/verify/recover/query jobs over a
//       local Unix socket (plus compressed-domain query jobs), with
//       bounded admission, per-job watchdog
//       deadlines, retry with exponential backoff, and a CYL1 job
//       ledger. --recover salvages an existing ledger after a crash:
//       unfinished jobs are re-queued and their torn journals renamed
//       to .salvage for `cyptrace recover`. --crash-after-segments is a
//       test hook that SIGKILLs the daemon after the Nth ledger
//       segment (the kill-matrix integration test drives it).
//
//   cyptraced submit --socket PATH <workload|file.mc> [--procs N]
//             [--scale S] [--fault SPEC]... [--transient-faults]
//             [--attempts N] [--deadline MS]
//             [--kind run|compress|verify|recover|query] [--query SPEC]
//             [--wait [MS]]
//       A query job (--kind query --query "matrix") answers a
//       compressed-domain analysis against a trace file and writes the
//       canonical JSON as the job artifact.
//       Submit one job; prints the job id (and, with --wait, blocks for
//       the outcome). Exit 0 on DONE, 3 on FAILED/CANCELLED, 4 when
//       the server refused the job (REJECTED_BUSY).
//
//   cyptraced status  --socket PATH <jobId>
//   cyptraced wait    --socket PATH <jobId> [--timeout MS]
//   cyptraced cancel  --socket PATH <jobId>
//   cyptraced list    --socket PATH
//   cyptraced counters --socket PATH
//   cyptraced shutdown --socket PATH
//
// See docs/SERVICE.md for the wire protocol and the job state machine.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"
#include "workloads/workloads.hpp"

using namespace cypress;

namespace {

volatile std::sig_atomic_t gSignalled = 0;

void onSignal(int) { gSignalled = 1; }

struct Args {
  std::string command;
  std::string target;
  std::string socket = "cyptraced.sock";
  std::string spool = "cyptraced-spool";
  std::string kind = "run";
  bool recover = false;
  size_t queue = 8;
  int concurrent = 2;
  size_t clientCap = 4;
  uint32_t attempts = 0;
  uint64_t deadlineMs = 0;
  int threads = 1;
  uint64_t crashAfterSegments = 0;
  int procs = 8;
  int scale = 1;
  std::vector<std::string> faultSpecs;
  bool transientFaults = false;
  std::string querySpec;
  bool wait = false;
  uint64_t waitMs = 120'000;
  uint64_t timeoutMs = 120'000;
  uint64_t jobId = 0;  ///< status, wait and cancel
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cyptraced serve --socket PATH --spool DIR [--recover] [--queue N]\n"
      "            [--concurrent N] [--client-cap N] [--attempts N]\n"
      "            [--deadline MS] [--threads T] [--crash-after-segments N]\n"
      "  cyptraced submit --socket PATH <workload|file.mc> [--procs N] [--scale S]\n"
      "            [--kind run|compress|verify|recover|query] [--query SPEC]\n"
      "            [--fault SPEC]...\n"
      "            [--transient-faults] [--attempts N] [--deadline MS] [--wait [MS]]\n"
      "  cyptraced status|wait|cancel --socket PATH <jobId> [--timeout MS]\n"
      "  cyptraced list|counters|shutdown --socket PATH\n");
  std::exit(2);
}

/// status, wait and cancel act on the one job their target names.
bool namesJob(const std::string& command) {
  return command == "status" || command == "wait" || command == "cancel";
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) usage();
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    auto count = [&] { return cli::parseCount("cyptraced", flag, value()); };
    auto number = [&](uint64_t max = UINT64_MAX) {
      return cli::parseUnsigned("cyptraced", flag, value(), max);
    };
    if (flag == "--socket") a.socket = value();
    else if (flag == "--spool") a.spool = value();
    else if (flag == "--recover") a.recover = true;
    else if (flag == "--queue") a.queue = number(SIZE_MAX);
    else if (flag == "--concurrent") a.concurrent = count();
    else if (flag == "--client-cap") a.clientCap = number(SIZE_MAX);
    else if (flag == "--attempts")
      a.attempts = static_cast<uint32_t>(number(UINT32_MAX));
    else if (flag == "--deadline") a.deadlineMs = number();
    else if (flag == "--threads") a.threads = count();
    else if (flag == "--crash-after-segments") a.crashAfterSegments = number();
    else if (flag == "--procs") a.procs = count();
    else if (flag == "--scale") a.scale = count();
    else if (flag == "--kind") a.kind = value();
    else if (flag == "--query") a.querySpec = value();
    else if (flag == "--fault") a.faultSpecs.push_back(value());
    else if (flag == "--transient-faults") a.transientFaults = true;
    else if (flag == "--wait") {
      a.wait = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') a.waitMs = number();
    }
    else if (flag == "--timeout") a.timeoutMs = number();
    else if (!flag.empty() && flag[0] != '-' && a.target.empty()) a.target = flag;
    else usage();
  }
  if (namesJob(a.command)) {
    if (a.target.empty()) usage();
    a.jobId = cli::parseUnsigned("cyptraced", "job id", a.target);
  }
  return a;
}

void printStatus(const service::JobStatus& s) {
  std::printf("job %llu: %s (attempt %u)\n",
              static_cast<unsigned long long>(s.id), toString(s.state),
              s.attempts);
  if (!s.detail.empty()) std::printf("  %s\n", s.detail.c_str());
  if (!s.artifactPath.empty())
    std::printf("  artifact: %s (%s)\n", s.artifactPath.c_str(),
                humanBytes(s.artifactBytes).c_str());
  if (!s.journalPath.empty())
    std::printf("  journal:  %s\n", s.journalPath.c_str());
}

int exitForState(service::JobState s) {
  return s == service::JobState::Done ? 0 : 3;
}

int cmdServe(const Args& a) {
  service::ServerConfig cfg;
  cfg.spoolDir = a.spool;
  cfg.queueCapacity = a.queue;
  cfg.maxConcurrent = a.concurrent;
  cfg.perClientCap = a.clientCap;
  if (a.attempts) cfg.defaultMaxAttempts = a.attempts;
  if (a.deadlineMs) cfg.defaultDeadlineMs = a.deadlineMs;
  cfg.threadsPerJob = a.threads;
  cfg.crashAfterLedgerSegments = a.crashAfterSegments;
  cfg.recover = a.recover;

  service::JobServer server(cfg);
  if (!server.requeuedJobs().empty()) {
    std::printf("recovered ledger: re-queued %zu unfinished job(s):",
                server.requeuedJobs().size());
    for (uint64_t id : server.requeuedJobs())
      std::printf(" %llu", static_cast<unsigned long long>(id));
    std::printf("\n");
  }
  server.start();

  service::SocketServer sock(server, a.socket);
  sock.start();
  std::printf("cyptraced listening on %s (spool %s, queue %zu, concurrent %d)\n",
              a.socket.c_str(), a.spool.c_str(), a.queue, a.concurrent);
  std::fflush(stdout);

  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  // Poll rather than block: condition waits are not interrupted by
  // signals, and SIGTERM must win even with no protocol traffic.
  while (!gSignalled && !sock.shutdownSeen())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::printf("cyptraced shutting down\n");
  sock.stop();
  server.stop();
  return 0;
}

int cmdSubmit(const Args& a) {
  if (a.target.empty()) usage();
  service::Client client(a.socket);
  service::JobSpec spec;
  if (a.kind == "run") spec.kind = service::JobKind::Run;
  else if (a.kind == "compress") spec.kind = service::JobKind::Compress;
  else if (a.kind == "verify") spec.kind = service::JobKind::Verify;
  else if (a.kind == "recover") spec.kind = service::JobKind::Recover;
  else if (a.kind == "query") spec.kind = service::JobKind::Query;
  else usage();
  if (spec.kind == service::JobKind::Query && a.querySpec.empty()) usage();
  spec.target = a.target;
  if (spec.kind == service::JobKind::Run && cli::isSourceFile(a.target))
    spec.sourceText = cli::readFile(a.target);
  spec.procs = static_cast<uint32_t>(a.procs);
  spec.scale = static_cast<uint32_t>(a.scale);
  spec.faultSpecs = a.faultSpecs;
  spec.faultsTransient = a.transientFaults;
  spec.deadlineMs = a.deadlineMs;
  spec.maxAttempts = a.attempts;
  spec.querySpec = a.querySpec;

  const service::Response resp = client.submit(spec);
  if (resp.code == service::ResponseCode::RejectedBusy) {
    std::fprintf(stderr, "rejected: %s\n", resp.message.c_str());
    return 4;
  }
  CYP_CHECK(resp.code == service::ResponseCode::Accepted,
            "submit failed: " << resp.message);
  std::printf("accepted as job %llu\n",
              static_cast<unsigned long long>(resp.jobId));
  if (!a.wait) return 0;
  auto s = client.wait(resp.jobId, a.waitMs);
  CYP_CHECK(s.has_value(), "job vanished while waiting");
  printStatus(*s);
  if (!isTerminal(s->state)) {
    std::fprintf(stderr, "timed out waiting for job %llu\n",
                 static_cast<unsigned long long>(resp.jobId));
    return 5;
  }
  return exitForState(s->state);
}

/// The job's state once the status, wait or cancel request returns.
int cmdJob(const Args& a) {
  service::Client client(a.socket);
  const auto s = a.command == "status" ? client.status(a.jobId)
                 : a.command == "wait" ? client.wait(a.jobId, a.timeoutMs)
                                       : client.cancel(a.jobId);
  if (!s) {
    std::fprintf(stderr, "no such job\n");
    return 1;
  }
  printStatus(*s);
  if (a.command == "cancel") return 0;
  if (isTerminal(s->state)) return exitForState(s->state);
  if (a.command == "status") return 0;
  std::fprintf(stderr, "timed out\n");
  return 5;
}

int cmdList(const Args& a) {
  service::Client client(a.socket);
  for (const auto& s : client.list()) printStatus(s);
  return 0;
}

int cmdCounters(const Args& a) {
  service::Client client(a.socket);
  const service::Counters c = client.counters();
  std::printf("submitted           %llu\n", static_cast<unsigned long long>(c.submitted));
  std::printf("accepted            %llu\n", static_cast<unsigned long long>(c.accepted));
  std::printf("rejected (busy)     %llu\n", static_cast<unsigned long long>(c.rejectedBusy));
  std::printf("rejected (cap)      %llu\n", static_cast<unsigned long long>(c.rejectedClientCap));
  std::printf("done                %llu\n", static_cast<unsigned long long>(c.done));
  std::printf("failed              %llu\n", static_cast<unsigned long long>(c.failed));
  std::printf("cancelled           %llu\n", static_cast<unsigned long long>(c.cancelled));
  std::printf("retries             %llu\n", static_cast<unsigned long long>(c.retries));
  std::printf("cache hits/misses   %llu/%llu\n",
              static_cast<unsigned long long>(c.cacheHits),
              static_cast<unsigned long long>(c.cacheMisses));
  return 0;
}

int cmdShutdown(const Args& a) {
  service::Client client(a.socket);
  client.shutdown();
  std::printf("shutdown acknowledged\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    ThreadPool::configureShared(
        static_cast<unsigned>(std::max(2, a.concurrent + 1)));
    if (a.command == "serve") return cmdServe(a);
    if (a.command == "submit") return cmdSubmit(a);
    if (namesJob(a.command)) return cmdJob(a);
    if (a.command == "list") return cmdList(a);
    if (a.command == "counters") return cmdCounters(a);
    if (a.command == "shutdown") return cmdShutdown(a);
    usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cyptraced: %s\n", e.what());
    return 1;
  }
}
