#include "service/server.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "cypress/merge.hpp"
#include "driver/pipeline.hpp"
#include "flate/flate.hpp"
#include "query/query.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "verify/roundtrip.hpp"
#include "workloads/workloads.hpp"

namespace cypress::service {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

std::vector<uint8_t> readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CYP_CHECK(in.good(), "cannot open " << path);
  std::vector<uint8_t> out((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  return out;
}

std::string firstLine(const std::string& s) {
  const auto nl = s.find('\n');
  return nl == std::string::npos ? s : s.substr(0, nl);
}

std::string describeRanks(const char* what, const std::vector<int>& ranks) {
  std::string s = what;
  for (int r : ranks) s += ' ' + std::to_string(r);
  return s;
}

}  // namespace

JobServer::JobServer(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      io_(cfg_.io ? cfg_.io : &io::realIo()),
      cache_(cfg_.cacheCapacity) {
  io_->createDirectories(cfg_.spoolDir);
  if (cfg_.ledgerPath.empty()) cfg_.ledgerPath = cfg_.spoolDir + "/jobs.cyl";

  if (cfg_.recover) {
    LedgerRecovery rec = recoverLedgerFile(cfg_.ledgerPath, io_);
    nextId_ = rec.maxJobId;
    for (LedgerJob& lj : rec.jobs) {
      Job j;
      j.id = lj.id;
      j.clientId = lj.clientId;
      j.spec = lj.spec;
      j.state = lj.state;
      j.attempts = lj.attempt;
      j.maxAttempts = lj.spec.maxAttempts ? lj.spec.maxAttempts
                                          : cfg_.defaultMaxAttempts;
      j.deadlineMs =
          lj.spec.deadlineMs ? lj.spec.deadlineMs : cfg_.defaultDeadlineMs;
      j.detail = lj.detail;
      j.artifactPath = lj.artifactPath;
      j.journalPath = lj.journalPath;
      if (!isTerminal(j.state)) {
        // The daemon died with this job in flight. Anything it half
        // wrote is marked for salvage, then the job re-queues from its
        // recorded attempt count.
        const std::string base = jobFileBase(j.id);
        j.detail = "requeued after daemon restart";
        const std::string partial = base + ".cyj.partial";
        if (io_->exists(partial)) {
          // IoBackend::rename fsyncs the parent directory, so the
          // salvage name survives a second crash — the torn-rename
          // window the plain fs::rename left open.
          const std::string salvage = base + ".cyj.salvage";
          try {
            io_->rename(partial, salvage);
            j.journalPath = salvage;
            j.detail += "; torn journal kept for `cyptrace recover`: " + salvage;
          } catch (const Error&) {
            // Salvage is best-effort: the re-queued job rewrites the
            // journal from scratch anyway.
          }
        }
        try {
          io_->remove(base + ".cyp.tmp");
          io_->remove(base + ".flate.tmp");
          io_->remove(base + ".cytr.tmp");
        } catch (const Error&) {
        }
        j.state = JobState::Accepted;
        queue_.push_back(j.id);
        requeued_.push_back(j.id);
      }
      jobs_.emplace(j.id, std::move(j));
    }
    ledger_ = std::make_unique<LedgerWriter>(cfg_.ledgerPath, /*resume=*/true,
                                             io_);
    for (uint64_t id : requeued_) ledgerState(jobs_.at(id));
  } else {
    ledger_ = std::make_unique<LedgerWriter>(cfg_.ledgerPath, /*resume=*/false,
                                             io_);
  }
}

JobServer::~JobServer() { stop(); }

void JobServer::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_ || stopping_) return;
  started_ = true;
  dispatcher_ = std::thread([this] { dispatchLoop(); });
  watchdog_ = std::thread([this] { watchdogLoop(); });
}

void JobServer::stop() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stopping_) {
      // Already stopped (or stopping on another thread): just wait for
      // the drain below.
    }
    stopping_ = true;
    // Cancel everything still queued...
    for (uint64_t id : queue_) {
      Job& j = jobs_.at(id);
      j.state = JobState::Cancelled;
      j.detail = "cancelled: server shutdown";
      ++counters_.cancelled;
      ledgerState(j);
    }
    queue_.clear();
    // ...and ask running attempts to bail at the next epoch boundary.
    for (auto& [id, j] : jobs_)
      if (j.state == JobState::Running && j.cancelFlag)
        j.cancelFlag->store(true, std::memory_order_relaxed);
    dispatchCv_.notify_all();
    cv_.notify_all();
  }
  if (dispatcher_.joinable()) dispatcher_.join();
  if (watchdog_.joinable()) watchdog_.join();
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return inflight_ == 0; });
}

std::string JobServer::jobFileBase(uint64_t id) const {
  return cfg_.spoolDir + "/job-" + std::to_string(id);
}

void JobServer::ledgerState(const Job& j) {
  ledger_->appendState(j.id, j.state, j.attempts, j.detail, j.artifactPath,
                       j.journalPath);
  if (cfg_.crashAfterLedgerSegments != 0 &&
      ledger_->segmentsWritten() >= cfg_.crashAfterLedgerSegments)
    std::raise(SIGKILL);
}

uint64_t JobServer::ledgerSegments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ledger_->segmentsWritten();
}

JobServer::SubmitResult JobServer::submit(const JobSpec& spec,
                                          uint64_t clientId) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.submitted;
  SubmitResult res;
  if (stopping_) {
    res.message = "server is shutting down";
    return res;
  }
  if (queue_.size() >= cfg_.queueCapacity) {
    ++counters_.rejectedBusy;
    res.message = "queue full (" + std::to_string(cfg_.queueCapacity) +
                  " jobs waiting); try again later";
    return res;
  }
  size_t inflightForClient = 0;
  for (const auto& [id, j] : jobs_)
    if (j.clientId == clientId && !isTerminal(j.state)) ++inflightForClient;
  if (inflightForClient >= cfg_.perClientCap) {
    ++counters_.rejectedClientCap;
    res.message = "client has " + std::to_string(inflightForClient) +
                  " jobs in flight (cap " + std::to_string(cfg_.perClientCap) +
                  ")";
    res.clientCapped = true;
    return res;
  }

  Job j;
  j.id = ++nextId_;
  j.clientId = clientId;
  j.spec = spec;
  j.maxAttempts = spec.maxAttempts ? spec.maxAttempts : cfg_.defaultMaxAttempts;
  j.deadlineMs = spec.deadlineMs ? spec.deadlineMs : cfg_.defaultDeadlineMs;
  // The SUBMIT segment is the durable ACCEPTED transition: a recovered
  // ledger treats a job with no later STATE segment as accepted.
  ledger_->appendSubmit(j.id, clientId, spec);
  if (cfg_.crashAfterLedgerSegments != 0 &&
      ledger_->segmentsWritten() >= cfg_.crashAfterLedgerSegments)
    std::raise(SIGKILL);
  ++counters_.accepted;
  res.accepted = true;
  res.jobId = j.id;
  queue_.push_back(j.id);
  jobs_.emplace(j.id, std::move(j));
  dispatchCv_.notify_all();
  return res;
}

std::optional<JobStatus> JobServer::status(uint64_t jobId) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(jobId);
  if (it == jobs_.end()) return std::nullopt;
  return snapshot(it->second);
}

std::optional<JobStatus> JobServer::wait(uint64_t jobId, uint64_t timeoutMs) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(jobId);
  if (it == jobs_.end()) return std::nullopt;
  cv_.wait_for(lock, std::chrono::milliseconds(timeoutMs), [&] {
    return isTerminal(jobs_.at(jobId).state) || stopping_;
  });
  return snapshot(jobs_.at(jobId));
}

bool JobServer::cancel(uint64_t jobId) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(jobId);
  if (it == jobs_.end()) return false;
  Job& j = it->second;
  if (isTerminal(j.state)) return false;
  j.cancelRequested = true;
  if (j.state == JobState::Accepted) {
    // Still queued (or parked behind a backoff gate): cancel outright.
    queue_.erase(std::remove(queue_.begin(), queue_.end(), jobId),
                 queue_.end());
    j.state = JobState::Cancelled;
    j.detail = "cancelled by client";
    ++counters_.cancelled;
    ledgerState(j);
    cv_.notify_all();
  } else if (j.cancelFlag) {
    j.cancelFlag->store(true, std::memory_order_relaxed);
  }
  return true;
}

std::vector<JobStatus> JobServer::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, j] : jobs_) out.push_back(snapshot(j));
  return out;
}

Counters JobServer::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c = counters_;
  c.cacheHits = cache_.hits();
  c.cacheMisses = cache_.misses();
  return c;
}

JobStatus JobServer::snapshot(const Job& j) const {
  JobStatus s;
  s.id = j.id;
  s.state = j.state;
  s.attempts = j.attempts;
  s.detail = j.detail;
  s.artifactPath = j.artifactPath;
  s.journalPath = j.journalPath;
  s.artifactBytes = j.artifactBytes;
  s.errnoValue = j.errnoValue;
  return s;
}

uint64_t JobServer::backoffMs(uint64_t jobId, uint32_t attempt) const {
  const uint32_t shift = std::min(attempt > 0 ? attempt - 1 : 0u, 20u);
  const uint64_t exp = std::min(cfg_.backoffCapMs, cfg_.backoffBaseMs << shift);
  // Deterministic jitter: a fixed (seed, job, attempt) triple always
  // waits the same amount, so tests and recoveries are reproducible
  // while concurrent retries still de-correlate.
  Rng rng(cfg_.jitterSeed ^ (jobId * 0x9E3779B97F4A7C15ull) ^ attempt);
  return exp + rng.below(cfg_.backoffBaseMs + 1);
}

void JobServer::dispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    const auto now = Clock::now();
    if (runningCount_ < cfg_.maxConcurrent) {
      // FIFO with backoff gates: take the first queued job whose gate
      // has opened; jobs behind closed gates do not block later ones.
      auto it = std::find_if(queue_.begin(), queue_.end(), [&](uint64_t id) {
        return jobs_.at(id).notBefore <= now;
      });
      if (it != queue_.end()) {
        const uint64_t id = *it;
        queue_.erase(it);
        Job& j = jobs_.at(id);
        j.state = JobState::Running;
        ++j.attempts;
        j.cancelFlag = std::make_shared<std::atomic<bool>>(
            j.cancelRequested || stopping_);
        j.running = false;
        j.deadlineExpired = false;
        j.detail = "attempt " + std::to_string(j.attempts) + " of " +
                   std::to_string(j.maxAttempts);
        ledgerState(j);
        ++runningCount_;
        ++inflight_;
        const uint32_t attempt = j.attempts;
        lock.unlock();
        ThreadPool::shared().enqueue(
            [this, id, attempt] { executeJob(id, attempt); });
        lock.lock();
        continue;
      }
    }
    dispatchCv_.wait_for(lock,
                         std::chrono::milliseconds(cfg_.watchdogPollMs));
  }
}

void JobServer::watchdogLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    cv_.wait_for(lock, std::chrono::milliseconds(cfg_.watchdogPollMs));
    const auto now = Clock::now();
    for (auto& [id, j] : jobs_) {
      if (j.state != JobState::Running || !j.running || !j.cancelFlag)
        continue;
      if (j.cancelFlag->load(std::memory_order_relaxed)) continue;
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                                j.runStart);
      if (static_cast<uint64_t>(elapsed.count()) >= j.deadlineMs) {
        j.deadlineExpired = true;
        j.cancelFlag->store(true, std::memory_order_relaxed);
      }
    }
  }
}

void JobServer::executeJob(uint64_t id, uint32_t attempt) {
  JobSpec spec;
  std::shared_ptr<std::atomic<bool>> flag;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Job& j = jobs_.at(id);
    spec = j.spec;
    flag = j.cancelFlag;
    j.running = true;
    j.runStart = Clock::now();  // the watchdog clock starts at attempt
                                // entry, not enqueue — queue wait on a
                                // loaded pool is not the job's fault
  }
  AttemptResult res;
  try {
    res = runAttempt(spec, id, attempt, *flag);
  } catch (const io::IoError& e) {
    // Disk faults are their own failure class: terminal (retrying a
    // full disk fails identically) and carrying the errno to the
    // client so tooling can react to ENOSPC specifically.
    res.outcome = Outcome::Disk;
    res.errnoValue = static_cast<uint32_t>(e.errnum());
    res.detail = firstLine(e.what());
  } catch (const std::exception& e) {
    res.outcome = Outcome::Permanent;
    res.detail = firstLine(e.what());
  }
  finishAttempt(id, std::move(res));
}

JobServer::AttemptResult JobServer::runAttempt(
    const JobSpec& spec, uint64_t id, uint32_t attempt,
    const std::atomic<bool>& cancel) {
  AttemptResult res;
  const std::string base = jobFileBase(id);

  if (cancel.load(std::memory_order_relaxed)) {
    res.outcome = Outcome::Cancelled;
    res.detail = "cancelled before start";
    return res;
  }

  switch (spec.kind) {
    case JobKind::Run: {
      // Mirror `cyptrace run`: CYPRESS only (no raw trace), merged
      // trace out.
      std::string source = spec.sourceText;
      if (source.empty()) {
        const workloads::Workload& w = workloads::get(spec.target);
        CYP_CHECK(w.supportsProcs(static_cast<int>(spec.procs)),
                  spec.target << " does not support " << spec.procs
                              << " processes");
        source = w.source(static_cast<int>(spec.procs),
                          static_cast<int>(spec.scale));
      }

      driver::Options opts;
      opts.procs = static_cast<int>(spec.procs);
      opts.scale = static_cast<int>(spec.scale);
      opts.threads = cfg_.threadsPerJob;
      opts.withRaw = false;
      opts.withScala = false;
      opts.withScala2 = false;
      opts.onStall = vm::OnStall::Salvage;
      opts.cancel = &cancel;
      opts.precompiled = cache_.get(source);
      // Transient faults are injected on the first attempt only — the
      // failure mode the retry machinery exists for. Without the flag,
      // the plan is deterministic and every attempt fails identically.
      if (!spec.faultsTransient || attempt == 1)
        for (const std::string& f : spec.faultSpecs)
          opts.engine.faults.faults.push_back(simmpi::parseFaultSpec(f));

      // Stream the journal to disk as it grows: a daemon crash mid-run
      // leaves a salvageable torn .partial instead of nothing. The
      // durable sink fsyncs each flushed segment, so what the file
      // promises to `cyptrace recover` is actually on the platter.
      opts.withJournal = true;
      opts.journalFlushEvery = 16;
      const std::string partial = base + ".cyj.partial";
      opts.journalSink = trace::durableFileSink(*io_, partial);

      driver::RunOutput run = driver::runSource(spec.target, source, opts);
      opts.journalSink = nullptr;  // close the .partial before renaming it

      if (run.runStats.cancelled) {
        res.outcome = Outcome::Cancelled;  // finishAttempt tells user
                                           // cancel from deadline expiry
        res.detail = firstLine(run.runStats.stallDiagnostics);
        res.journalPath = partial;
        return res;
      }
      if (!run.runStats.stalledRanks.empty()) {
        // A stall (drop/delay fault, deadlock) is the transient class:
        // the tracer salvaged what it could; a retry may succeed.
        res.outcome = Outcome::Transient;
        res.detail = describeRanks("stalled ranks:",
                                   run.runStats.stalledRanks) +
                     "; " + firstLine(run.runStats.stallDiagnostics);
        res.journalPath = partial;
        return res;
      }

      core::MergedCtt merged =
          driver::mergeCypress(run, nullptr, cfg_.threadsPerJob);
      res.artifactPath = base + ".cyp";
      res.artifactBytes = driver::writeTrace(merged, res.artifactPath, io_);
      res.journalPath = base + ".cyj";
      io_->rename(partial, res.journalPath);

      if (run.runStats.deadRanks.empty()) {
        res.outcome = Outcome::Ok;
        res.detail = "traced " + std::to_string(run.runStats.totalEvents) +
                     " events on " + std::to_string(spec.procs) + " ranks";
      } else {
        // Killed ranks degrade, not fail: the survivors' merged trace
        // is valid and the lost ranks are annotated in it (PR 2).
        res.outcome = Outcome::OkDegraded;
        res.detail = describeRanks("degraded; killed ranks:",
                                   run.runStats.deadRanks);
      }
      return res;
    }

    case JobKind::Compress: {
      const auto input = readBytes(spec.target);
      const auto packed =
          flate::compress(input, flate::Level::Default, cfg_.threadsPerJob);
      res.artifactPath = base + ".flate";
      io::writeFileAtomic(*io_, res.artifactPath, packed);
      res.artifactBytes = packed.size();
      res.outcome = Outcome::Ok;
      res.detail = std::to_string(input.size()) + " -> " +
                   std::to_string(packed.size()) + " bytes";
      return res;
    }

    case JobKind::Verify: {
      const auto input = readBytes(spec.target);
      const verify::Report rep = verify::verifyTraceFile(input);
      if (rep.ok()) {
        res.outcome = Outcome::Ok;
        res.detail = "verified: " + firstLine(rep.toString());
      } else {
        res.outcome = Outcome::Permanent;
        res.detail = "verification failed: " + firstLine(rep.toString());
      }
      return res;
    }

    case JobKind::Query: {
      // Compressed-domain analysis: the trace is never decompressed.
      // The validated query spec and the deserializer both raise
      // cypress::Error on bad input, which lands in Outcome::Permanent
      // like any other malformed job.
      const auto input = readBytes(spec.target);
      cst::Tree tree;
      core::MergedCtt merged =
          core::MergedCtt::deserializeWithTree(input, tree);
      const std::string json =
          query::runQuery(merged, spec.querySpec, cfg_.threadsPerJob);
      res.artifactPath = base + ".json";
      io::writeFileAtomic(*io_, res.artifactPath,
                          std::span<const uint8_t>(
                              reinterpret_cast<const uint8_t*>(json.data()),
                              json.size()));
      res.artifactBytes = json.size();
      res.outcome = Outcome::Ok;
      res.detail = "query '" + spec.querySpec + "' -> " +
                   std::to_string(json.size()) + " bytes";
      return res;
    }

    case JobKind::Recover: {
      const auto input = readBytes(spec.target);
      const trace::JournalRecovery rec = trace::recoverJournal(input);
      const auto raw = rec.trace.serialize();
      res.artifactPath = base + ".cytr";
      io::writeFileAtomic(*io_, res.artifactPath, raw);
      res.artifactBytes = raw.size();
      res.outcome = rec.lossy() ? Outcome::OkDegraded : Outcome::Ok;
      res.detail = "salvaged " + std::to_string(rec.segmentsRecovered) +
                   " segments";
      if (rec.lossy())
        res.detail += " (lossy: " + std::to_string(rec.bytesDiscarded) +
                      " bytes discarded, " +
                      std::to_string(rec.unfinalizedRanks().size()) +
                      " unfinalized ranks)";
      return res;
    }
  }
  res.outcome = Outcome::Permanent;
  res.detail = "unknown job kind";
  return res;
}

void JobServer::finishAttempt(uint64_t id, AttemptResult res) {
  std::unique_lock<std::mutex> lock(mu_);
  Job& j = jobs_.at(id);
  j.running = false;
  --runningCount_;

  // A cooperative cancel has three distinct owners; attribute it.
  Outcome outcome = res.outcome;
  if (outcome == Outcome::Cancelled && j.deadlineExpired)
    outcome = Outcome::Deadline;

  const bool retryable =
      (outcome == Outcome::Transient || outcome == Outcome::Deadline) &&
      !stopping_ && !j.cancelRequested && j.attempts < j.maxAttempts;

  j.artifactPath = res.artifactPath.empty() ? j.artifactPath : res.artifactPath;
  j.journalPath = res.journalPath.empty() ? j.journalPath : res.journalPath;
  j.artifactBytes = res.artifactBytes ? res.artifactBytes : j.artifactBytes;

  switch (outcome) {
    case Outcome::Ok:
    case Outcome::OkDegraded:
      j.state = JobState::Done;
      j.detail = res.detail;
      ++counters_.done;
      break;
    case Outcome::Permanent:
      j.state = JobState::Failed;
      j.detail = res.detail;
      ++counters_.failed;
      break;
    case Outcome::Disk:
      j.state = JobState::FailedDisk;
      j.detail = res.detail;
      j.errnoValue = res.errnoValue;
      ++counters_.failedDisk;
      break;
    case Outcome::Cancelled:
      j.state = JobState::Cancelled;
      j.detail = res.detail.empty() ? "cancelled" : "cancelled: " + res.detail;
      ++counters_.cancelled;
      break;
    case Outcome::Deadline:
    case Outcome::Transient: {
      const char* why = outcome == Outcome::Deadline
                            ? "deadline exceeded"
                            : "transient failure";
      if (retryable) {
        const uint64_t delay = backoffMs(id, j.attempts);
        j.state = JobState::Accepted;
        j.detail = std::string(why) + " on attempt " +
                   std::to_string(j.attempts) + "; retrying in " +
                   std::to_string(delay) + " ms: " + res.detail;
        j.notBefore = Clock::now() + std::chrono::milliseconds(delay);
        queue_.push_back(id);
        ++counters_.retries;
      } else {
        j.state = JobState::Failed;
        j.detail = std::string(why) + " after " + std::to_string(j.attempts) +
                   " attempt(s): " + res.detail;
        ++counters_.failed;
      }
      break;
    }
  }
  ledgerState(j);
  --inflight_;
  cv_.notify_all();
  dispatchCv_.notify_all();
}

}  // namespace cypress::service
