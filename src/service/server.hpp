// cyptraced job server: admission control, per-job watchdogs, retry
// with backoff, and a crash-consistent job ledger.
//
// The server owns a bounded FIFO queue of jobs and runs them on the
// process-wide ThreadPool. Each layer has one job:
//
//   admission   submit() either admits a job (bounded queue, per-client
//               in-flight cap) or refuses it explicitly — REJECTED_BUSY
//               under load, never silent queue growth.
//   dispatch    a dispatcher thread launches queued jobs FIFO, at most
//               maxConcurrent at a time, skipping jobs parked behind a
//               retry-backoff gate.
//   watchdog    a watchdog thread cancels any attempt that exceeds its
//               wall deadline via the VM's cooperative cancel flag (the
//               same stall machinery fault injection exercises); the
//               job gets per-rank diagnostics, the server stays up.
//   retry       transient failures (stalls from injected drop/delay
//               faults, expired deadlines) re-queue with exponential
//               backoff + deterministic jitter up to an attempt budget;
//               the terminal FAILED carries the last diagnostic.
//   ledger      every transition is appended to a CYL1 ledger
//               (service/ledger.hpp) before it takes effect in memory,
//               so `cyptraced --recover` after kill -9 re-queues
//               unfinished jobs and marks their torn journals for
//               `cyptrace recover`.
//
// Compiled programs are shared across jobs through a ProgramCache —
// the static phase is pure per program, so retries and repeated
// benchmarks skip it entirely.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "service/cache.hpp"
#include "service/ledger.hpp"
#include "service/protocol.hpp"

namespace cypress::service {

struct ServerConfig {
  /// Directory receiving artifacts, journals, and the ledger
  /// (`jobs.cyl`). Created if missing.
  std::string spoolDir = ".";
  /// Admission bound: jobs waiting to run (initial or retry). A full
  /// queue refuses new work with REJECTED_BUSY.
  size_t queueCapacity = 8;
  /// Jobs executing at once (each runs as one pool task).
  int maxConcurrent = 2;
  /// Non-terminal jobs one client may have in flight.
  size_t perClientCap = 4;
  uint32_t defaultMaxAttempts = 3;
  uint64_t defaultDeadlineMs = 30'000;  ///< per-attempt wall deadline
  uint64_t backoffBaseMs = 25;
  uint64_t backoffCapMs = 2'000;
  /// Intra-job parallelism (driver::Options::threads).
  int threadsPerJob = 1;
  uint64_t watchdogPollMs = 10;
  /// Test hook for the kill matrix: raise SIGKILL immediately after the
  /// Nth ledger segment is written (0 = never). Keyed on the ledger
  /// segment counter, so the crash point is deterministic.
  uint64_t crashAfterLedgerSegments = 0;
  /// Salvage an existing ledger: replay it, truncate any torn tail,
  /// re-queue every non-terminal job, and rename their torn journals to
  /// `.salvage` for `cyptrace recover`. Without this flag an existing
  /// non-empty ledger is refused.
  bool recover = false;
  /// Backend for every durable write the server performs (ledger,
  /// journals, artifacts). Null = the real filesystem; tests inject a
  /// FaultyIoBackend here to drive the disk-fault failure class.
  io::IoBackend* io = nullptr;
};

/// The in-process job server. Protocol-agnostic: Session (service/
/// session.hpp) adapts it to the wire, tests call it directly.
class JobServer {
 public:
  explicit JobServer(ServerConfig cfg);
  ~JobServer();

  JobServer(const JobServer&) = delete;
  JobServer& operator=(const JobServer&) = delete;

  /// Launch the dispatcher and watchdog threads. submit() before
  /// start() queues jobs without running them (tests use this to
  /// exercise admission deterministically).
  void start();

  /// Cancel queued and running jobs, then block until every in-flight
  /// attempt has drained. Idempotent; the destructor calls it.
  void stop();

  struct SubmitResult {
    bool accepted = false;
    uint64_t jobId = 0;
    std::string message;  ///< rejection reason when !accepted
    bool clientCapped = false;
  };

  /// Admission control. Never blocks: a full queue or a client over its
  /// in-flight cap gets an immediate explicit refusal.
  SubmitResult submit(const JobSpec& spec, uint64_t clientId);

  std::optional<JobStatus> status(uint64_t jobId) const;

  /// Block until the job is terminal or `timeoutMs` elapses; returns
  /// the latest snapshot either way (nullopt for an unknown id).
  std::optional<JobStatus> wait(uint64_t jobId, uint64_t timeoutMs);

  /// Request cancellation: a queued job is cancelled immediately, a
  /// running one has its cancel flag raised (the VM honours it at the
  /// next epoch boundary). False for unknown or already-terminal jobs.
  bool cancel(uint64_t jobId);

  std::vector<JobStatus> list() const;
  Counters counters() const;

  /// Jobs re-queued by ledger recovery at construction.
  const std::vector<uint64_t>& requeuedJobs() const { return requeued_; }
  const ServerConfig& config() const { return cfg_; }
  uint64_t ledgerSegments() const;

 private:
  enum class Outcome {
    Ok,          ///< clean run, artifact written
    OkDegraded,  ///< survivors' artifact written, some ranks lost
    Transient,   ///< retryable (stall under fault injection)
    Permanent,   ///< not retryable (bad spec, compile error, verify fail)
    Cancelled,   ///< user cancel or server shutdown
    Deadline,    ///< watchdog expired the attempt
    Disk,        ///< disk fault (ENOSPC/EIO) — terminal, never retried
  };

  struct Job {
    uint64_t id = 0;
    uint64_t clientId = 0;
    JobSpec spec;
    JobState state = JobState::Accepted;
    uint32_t attempts = 0;  ///< attempts started
    uint32_t maxAttempts = 1;
    uint64_t deadlineMs = 0;
    std::string detail;
    std::string artifactPath;
    std::string journalPath;
    uint64_t artifactBytes = 0;
    uint32_t errnoValue = 0;  ///< errno behind a FAILED_DISK state
    std::chrono::steady_clock::time_point notBefore{};  ///< backoff gate
    std::chrono::steady_clock::time_point runStart{};
    std::shared_ptr<std::atomic<bool>> cancelFlag;  ///< current attempt
    bool running = false;  ///< attempt body entered (watchdog clock armed)
    bool cancelRequested = false;
    bool deadlineExpired = false;
  };

  struct AttemptResult {
    Outcome outcome = Outcome::Permanent;
    std::string detail;
    std::string artifactPath;
    std::string journalPath;
    uint64_t artifactBytes = 0;
    uint32_t errnoValue = 0;  ///< set with Outcome::Disk
  };

  void dispatchLoop();
  void watchdogLoop();
  void executeJob(uint64_t id, uint32_t attempt);
  AttemptResult runAttempt(const JobSpec& spec, uint64_t id, uint32_t attempt,
                           const std::atomic<bool>& cancel);
  void finishAttempt(uint64_t id, AttemptResult res);
  uint64_t backoffMs(uint64_t jobId, uint32_t attempt) const;
  std::string jobFileBase(uint64_t id) const;
  JobStatus snapshot(const Job& j) const;

  /// Append to the ledger and honour the crash hook. Callers hold mu_.
  void ledgerState(const Job& j);

  ServerConfig cfg_;
  io::IoBackend* io_;  ///< resolved from cfg_.io (never null)
  ProgramCache cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;          // job state changes (wait, stop)
  std::condition_variable dispatchCv_;  // queue/backoff/slot changes
  std::map<uint64_t, Job> jobs_;
  std::deque<uint64_t> queue_;  // FIFO of jobs in Accepted state
  std::unique_ptr<LedgerWriter> ledger_;
  Counters counters_;
  uint64_t nextId_ = 0;
  int runningCount_ = 0;
  int inflight_ = 0;  // attempt closures not yet finished
  bool started_ = false;
  bool stopping_ = false;
  std::vector<uint64_t> requeued_;

  std::thread dispatcher_;
  std::thread watchdog_;
};

}  // namespace cypress::service
