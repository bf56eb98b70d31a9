// Service disk-fault classification tests.
//
// A disk fault is a distinct failure class: unlike a stall or a
// transient infrastructure hiccup, ENOSPC fails every retry
// identically, so the server must park the job in the terminal
// FAILED_DISK state after ONE attempt, carry the errno in the status,
// and count it separately from ordinary failures. The fault-injecting
// IoBackend plugs straight into ServerConfig, so the whole artifact
// write-out path (journal streaming, atomic .cyp/.cyj renames, ledger
// appends) runs against the failing disk.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <filesystem>

#include "service/server.hpp"
#include "support/io.hpp"
#include "support/thread_pool.hpp"

namespace cypress::service {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& name) {
  // pid suffix: parallel ctest runs each case in its own process.
  const std::string dir =
      (fs::temp_directory_path() / (name + "." + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  return dir;
}

JobSpec runSpec() {
  JobSpec s;
  s.kind = JobKind::Run;
  s.target = "JACOBI";
  s.procs = 4;
  s.maxAttempts = 3;  // would retry, if the server let a disk fault retry
  return s;
}

JobStatus awaitTerminal(JobServer& server, uint64_t id) {
  auto st = server.wait(id, 120'000);
  EXPECT_TRUE(st.has_value());
  EXPECT_TRUE(st && isTerminal(st->state));
  return st.value_or(JobStatus{});
}

TEST(ServiceDiskFault, EnospcOnArtifactIsTerminalAfterOneAttempt) {
  ThreadPool::configureShared(2);
  // The first write of the job's .cyp artifact sees a full disk.
  io::FaultyIoBackend faulty(io::realIo(),
                             {io::parseIoFaultSpec("enospc@1:.cyp.tmp")});
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_enospc");
  cfg.backoffBaseMs = 5;
  cfg.io = &faulty;
  JobServer server(cfg);
  server.start();

  const auto r = server.submit(runSpec(), /*clientId=*/1);
  ASSERT_TRUE(r.accepted) << r.message;
  const JobStatus st = awaitTerminal(server, r.jobId);

  EXPECT_EQ(st.state, JobState::FailedDisk);
  EXPECT_EQ(st.errnoValue, static_cast<uint32_t>(ENOSPC));
  EXPECT_TRUE(io::isDiskFull(static_cast<int>(st.errnoValue)));
  EXPECT_EQ(st.attempts, 1u) << "disk faults must not burn retries";
  EXPECT_NE(st.detail.find("ENOSPC"), std::string::npos) << st.detail;

  const Counters c = server.counters();
  EXPECT_EQ(c.failedDisk, 1u);
  EXPECT_EQ(c.failed, 0u) << "disk faults are their own class";
  EXPECT_EQ(c.retries, 0u);
  server.stop();
}

TEST(ServiceDiskFault, EioOnJournalStreamIsTerminalToo) {
  ThreadPool::configureShared(2);
  // The journal streams to <spool>/job-N.cyj.partial during the run;
  // fail its third durable append.
  io::FaultyIoBackend faulty(io::realIo(),
                             {io::parseIoFaultSpec("eio@3:.cyj.partial")});
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_eio");
  cfg.backoffBaseMs = 5;
  cfg.io = &faulty;
  JobServer server(cfg);
  server.start();

  const auto r = server.submit(runSpec(), /*clientId=*/1);
  ASSERT_TRUE(r.accepted) << r.message;
  const JobStatus st = awaitTerminal(server, r.jobId);

  EXPECT_EQ(st.state, JobState::FailedDisk);
  EXPECT_EQ(st.errnoValue, static_cast<uint32_t>(EIO));
  EXPECT_EQ(st.attempts, 1u);
  EXPECT_EQ(server.counters().failedDisk, 1u);
  server.stop();
}

// The journal's one sync, before the rename to job-N.cyj: when it
// fails the job is FAILED_DISK, and no sealed journal exists.
TEST(ServiceDiskFault, FsyncFailureOnJournalIsTerminal) {
  ThreadPool::configureShared(2);
  io::FaultyIoBackend faulty(io::realIo(),
                             {io::parseIoFaultSpec("fsync@1:.cyj.partial")});
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_journal_fsync");
  cfg.backoffBaseMs = 5;
  cfg.io = &faulty;
  JobServer server(cfg);
  server.start();

  const auto r = server.submit(runSpec(), /*clientId=*/1);
  ASSERT_TRUE(r.accepted) << r.message;
  const JobStatus st = awaitTerminal(server, r.jobId);

  EXPECT_EQ(st.state, JobState::FailedDisk) << st.detail;
  EXPECT_EQ(st.errnoValue, static_cast<uint32_t>(EIO));
  EXPECT_EQ(st.attempts, 1u);
  EXPECT_EQ(faulty.faultsFired(), 1u);
  EXPECT_FALSE(fs::exists(cfg.spoolDir + "/job-1.cyj"));
  server.stop();
}

// A DONE attempt syncs its .partial exactly once: the first sync is
// the one the previous test fails, and a second never comes.
TEST(ServiceDiskFault, DoneJobSyncsItsJournalOnce) {
  ThreadPool::configureShared(2);
  io::FaultyIoBackend faulty(io::realIo(),
                             {io::parseIoFaultSpec("fsync@2:.cyj.partial")});
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_journal_once");
  cfg.io = &faulty;
  JobServer server(cfg);
  server.start();

  const auto r = server.submit(runSpec(), /*clientId=*/1);
  ASSERT_TRUE(r.accepted) << r.message;
  const JobStatus st = awaitTerminal(server, r.jobId);

  EXPECT_EQ(st.state, JobState::Done) << st.detail;
  EXPECT_EQ(st.attempts, 1u);
  EXPECT_EQ(faulty.faultsFired(), 0u) << "a second journal sync was issued";
  EXPECT_TRUE(fs::exists(st.journalPath)) << st.journalPath;
  EXPECT_FALSE(fs::exists(cfg.spoolDir + "/job-1.cyj.partial"));
  server.stop();
}

// A stalled attempt reports its .partial for salvage, so it syncs it
// too before returning.
TEST(ServiceDiskFault, StalledJobSyncsItsPartialJournal) {
  ThreadPool::configureShared(2);
  io::FaultyIoBackend faulty(io::realIo(),
                             {io::parseIoFaultSpec("fsync@1:.cyj.partial")});
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_stall_fsync");
  cfg.io = &faulty;
  JobServer server(cfg);
  server.start();

  JobSpec spec = runSpec();
  spec.faultSpecs = {"drop:1@3"};
  spec.maxAttempts = 1;
  const auto r = server.submit(spec, /*clientId=*/1);
  ASSERT_TRUE(r.accepted) << r.message;
  const JobStatus st = awaitTerminal(server, r.jobId);

  EXPECT_EQ(st.state, JobState::FailedDisk) << st.detail;
  EXPECT_EQ(st.errnoValue, static_cast<uint32_t>(EIO));
  EXPECT_EQ(faulty.faultsFired(), 1u);
  server.stop();
}

TEST(ServiceDiskFault, HealthyDiskStillCompletes) {
  // Same config shape, no faults: the IoBackend seam itself must not
  // change behaviour.
  ThreadPool::configureShared(2);
  io::FaultyIoBackend faulty(io::realIo(), {});
  ServerConfig cfg;
  cfg.spoolDir = freshDir("cyp_service_healthy");
  cfg.io = &faulty;
  JobServer server(cfg);
  server.start();

  const auto r = server.submit(runSpec(), /*clientId=*/1);
  ASSERT_TRUE(r.accepted) << r.message;
  const JobStatus st = awaitTerminal(server, r.jobId);
  EXPECT_EQ(st.state, JobState::Done) << st.detail;
  EXPECT_EQ(st.errnoValue, 0u);
  EXPECT_GT(faulty.writesSeen(), 0u) << "artifacts must flow through cfg.io";
  EXPECT_TRUE(fs::exists(st.artifactPath));
  server.stop();
}

TEST(ServiceDiskFault, FailedDiskStateIsWireStable) {
  // The new CYS1 state and errno field round-trip the protocol.
  EXPECT_TRUE(isTerminal(JobState::FailedDisk));
  EXPECT_STREQ(toString(JobState::FailedDisk), "FAILED_DISK");

  JobStatus st;
  st.id = 9;
  st.state = JobState::FailedDisk;
  st.attempts = 1;
  st.detail = "io: write spool/job-9.cyp.tmp failed";
  st.errnoValue = ENOSPC;
  ByteWriter w;
  st.serialize(w);
  ByteReader r(w.bytes());
  const JobStatus back = JobStatus::deserialize(r);
  EXPECT_EQ(back.state, JobState::FailedDisk);
  EXPECT_EQ(back.errnoValue, static_cast<uint32_t>(ENOSPC));

  Response resp;
  resp.code = ResponseCode::Error;
  resp.message = "disk full";
  resp.errnoValue = ENOSPC;
  const Response rback = Response::decode(resp.encode());
  EXPECT_EQ(rback.errnoValue, static_cast<uint32_t>(ENOSPC));
}

}  // namespace
}  // namespace cypress::service
