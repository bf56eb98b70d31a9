// cyptraced protocol + ledger + cache unit tests: frame codec
// roundtrips and rejection, request/response catalogue, CYL1 ledger
// crash salvage, program-cache sharing, and the admission-control
// contract (bounded queue → REJECTED_BUSY, per-client in-flight caps).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "service/cache.hpp"
#include "service/ledger.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "support/error.hpp"

namespace cypress::service {
namespace {

namespace fs = std::filesystem;

std::string tmpDir(const std::string& name) {
  const std::string d =
      (fs::temp_directory_path() / ("cyp_service_" + name)).string();
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

std::vector<uint8_t> fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
}

JobSpec sampleSpec() {
  JobSpec s;
  s.kind = JobKind::Run;
  s.target = "JACOBI";
  s.procs = 4;
  s.scale = 2;
  s.faultSpecs = {"kill:1@5", "delay:0@2:1000"};
  s.faultsTransient = true;
  s.deadlineMs = 1234;
  s.maxAttempts = 7;
  return s;
}

TEST(Frames, RoundtripAcrossArbitrarySplits) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
  const auto frame = encodeFrame(payload);
  // Deliver the frame byte by byte: the decoder must buffer and yield
  // exactly one payload, at the end.
  FrameDecoder d;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    d.feed(std::span<const uint8_t>(&frame[i], 1));
    EXPECT_FALSE(d.next().has_value()) << "yielded early at byte " << i;
  }
  d.feed(std::span<const uint8_t>(&frame.back(), 1));
  const auto got = d.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
  EXPECT_FALSE(d.next().has_value());
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(Frames, BackToBackFramesInOneFeed) {
  const std::vector<uint8_t> a = {9}, b = {8, 7};
  auto bytes = encodeFrame(a);
  const auto fb = encodeFrame(b);
  bytes.insert(bytes.end(), fb.begin(), fb.end());
  FrameDecoder d;
  d.feed(bytes);
  EXPECT_EQ(*d.next(), a);
  EXPECT_EQ(*d.next(), b);
  EXPECT_FALSE(d.next().has_value());
}

TEST(Frames, BadMagicRejected) {
  auto frame = encodeFrame(std::vector<uint8_t>{1});
  frame[0] ^= 0xFF;
  FrameDecoder d;
  d.feed(frame);
  EXPECT_THROW(d.next(), Error);
}

TEST(Frames, FlippedCrcRejected) {
  auto frame = encodeFrame(std::vector<uint8_t>{1, 2, 3});
  frame[8] ^= 0x01;  // CRC field
  FrameDecoder d;
  d.feed(frame);
  EXPECT_THROW(d.next(), Error);
}

TEST(Frames, CorruptPayloadRejected) {
  auto frame = encodeFrame(std::vector<uint8_t>{1, 2, 3});
  frame.back() ^= 0x40;
  FrameDecoder d;
  d.feed(frame);
  EXPECT_THROW(d.next(), Error);
}

TEST(Frames, OversizedLengthRejectedFromHeaderAlone) {
  // An absurd length prefix must be rejected as soon as the header is
  // visible — the decoder may not wait for (or buffer toward) a payload
  // that will never arrive.
  std::vector<uint8_t> header = {'C', 'Y', 'S', '1',
                                 0xFF, 0xFF, 0xFF, 0xFF,   // len
                                 0,    0,    0,    0};     // crc
  FrameDecoder d;
  d.feed(header);
  EXPECT_THROW(d.next(), Error);
}

TEST(Frames, PayloadAtCapAllowedOverCapRefused) {
  const std::vector<uint8_t> atCap(kMaxFramePayload, 0xAB);
  EXPECT_NO_THROW(encodeFrame(atCap));
  const std::vector<uint8_t> overCap(kMaxFramePayload + 1, 0xAB);
  EXPECT_THROW(encodeFrame(overCap), Error);
}

TEST(Messages, RequestRoundtripAllTypes) {
  Request submit;
  submit.type = RequestType::Submit;
  submit.spec = sampleSpec();
  const Request back = Request::decode(submit.encode());
  EXPECT_EQ(back.type, RequestType::Submit);
  EXPECT_EQ(back.spec.target, "JACOBI");
  EXPECT_EQ(back.spec.faultSpecs, submit.spec.faultSpecs);
  EXPECT_TRUE(back.spec.faultsTransient);
  EXPECT_EQ(back.spec.deadlineMs, 1234u);
  EXPECT_EQ(back.spec.maxAttempts, 7u);

  for (RequestType t : {RequestType::Hello, RequestType::Status,
                        RequestType::Wait, RequestType::Cancel,
                        RequestType::List, RequestType::Counters,
                        RequestType::Shutdown}) {
    Request r;
    r.type = t;
    r.jobId = 42;
    r.timeoutMs = 99;
    const Request rb = Request::decode(r.encode());
    EXPECT_EQ(rb.type, t);
  }
}

TEST(Messages, ResponseRoundtrip) {
  Response r;
  r.code = ResponseCode::Status;
  r.status.id = 7;
  r.status.state = JobState::Failed;
  r.status.attempts = 3;
  r.status.detail = "deadline exceeded after 3 attempt(s)";
  r.status.artifactPath = "/spool/job-7.cyp";
  const Response back = Response::decode(r.encode());
  EXPECT_EQ(back.code, ResponseCode::Status);
  EXPECT_EQ(back.status.id, 7u);
  EXPECT_EQ(back.status.state, JobState::Failed);
  EXPECT_EQ(back.status.detail, r.status.detail);

  Response list;
  list.code = ResponseCode::JobList;
  list.jobs = {r.status, r.status};
  const Response lb = Response::decode(list.encode());
  ASSERT_EQ(lb.jobs.size(), 2u);
  EXPECT_EQ(lb.jobs[1].attempts, 3u);
}

TEST(Messages, TrailingBytesRejected) {
  Request r;
  r.type = RequestType::List;
  auto bytes = r.encode();
  bytes.push_back(0);
  EXPECT_THROW(Request::decode(bytes), Error);
}

TEST(Messages, ImplausibleFieldsRejected) {
  Request r;
  r.type = RequestType::Submit;
  r.spec = sampleSpec();
  r.spec.procs = 0;
  EXPECT_THROW(Request::decode(r.encode()), Error);
  r.spec = sampleSpec();
  r.spec.maxAttempts = 100'000;
  EXPECT_THROW(Request::decode(r.encode()), Error);
}

TEST(Ledger, WriteRecoverRoundtrip) {
  const std::string dir = tmpDir("ledger_rt");
  const std::string path = dir + "/jobs.cyl";
  {
    LedgerWriter w(path);
    w.appendSubmit(1, 10, sampleSpec());
    w.appendState(1, JobState::Running, 1, "attempt 1", "", "");
    w.appendSubmit(2, 11, sampleSpec());
    w.appendState(1, JobState::Done, 1, "ok", dir + "/job-1.cyp", "");
    EXPECT_EQ(w.segmentsWritten(), 4u);
  }
  const auto rec = parseLedger(fileBytes(path));
  ASSERT_EQ(rec.jobs.size(), 2u);
  EXPECT_EQ(rec.jobs[0].state, JobState::Done);
  EXPECT_EQ(rec.jobs[0].artifactPath, dir + "/job-1.cyp");
  EXPECT_EQ(rec.jobs[1].state, JobState::Accepted);
  EXPECT_EQ(rec.maxJobId, 2u);
  EXPECT_EQ(rec.nonTerminal(), (std::vector<uint64_t>{2}));
}

TEST(Ledger, RefusesExistingFileWithoutResume) {
  const std::string dir = tmpDir("ledger_refuse");
  const std::string path = dir + "/jobs.cyl";
  { LedgerWriter w(path); w.appendSubmit(1, 1, sampleSpec()); }
  EXPECT_THROW(LedgerWriter second(path), Error);
  EXPECT_NO_THROW(LedgerWriter resumed(path, /*resume=*/true));
}

TEST(Ledger, TornTailSalvagedTruncatedAndResumable) {
  const std::string dir = tmpDir("ledger_torn");
  const std::string path = dir + "/jobs.cyl";
  {
    LedgerWriter w(path);
    w.appendSubmit(1, 1, sampleSpec());
    w.appendState(1, JobState::Running, 1, "attempt 1", "", "");
  }
  // Tear the file mid-segment, as kill -9 would.
  const auto full = fileBytes(path);
  fs::resize_file(path, full.size() - 3);

  const LedgerRecovery rec = recoverLedgerFile(path);
  ASSERT_EQ(rec.jobs.size(), 1u);
  EXPECT_EQ(rec.jobs[0].state, JobState::Accepted);  // Running seg lost
  EXPECT_GT(rec.bytesDiscarded, 0u);

  // recoverLedgerFile truncated to the valid prefix: a resumed writer
  // must append cleanly and the result must parse strictly.
  {
    LedgerWriter w(path, /*resume=*/true);
    w.appendState(1, JobState::Done, 1, "ok after restart", "", "");
  }
  const auto after = parseLedger(fileBytes(path));
  ASSERT_EQ(after.jobs.size(), 1u);
  EXPECT_EQ(after.jobs[0].state, JobState::Done);
}

TEST(Ledger, StrictParserRejectsAnomalies) {
  const std::string dir = tmpDir("ledger_strict");
  const std::string path = dir + "/jobs.cyl";
  {
    LedgerWriter w(path);
    w.appendSubmit(3, 1, sampleSpec());
    w.appendState(3, JobState::Done, 1, "ok", "", "");
  }
  auto bytes = fileBytes(path);
  // Flip a payload byte: strict throws, lenient salvages the prefix.
  auto corrupt = bytes;
  corrupt[corrupt.size() - 2] ^= 0x10;
  EXPECT_THROW(parseLedger(corrupt), Error);
  const auto rec = recoverLedger(corrupt);
  EXPECT_EQ(rec.segmentsRecovered, 1u);
  EXPECT_GT(rec.bytesDiscarded, 0u);
}

TEST(Cache, SharesCompiledProgramsAndCounts) {
  ProgramCache cache(4);
  const std::string src = R"(
    func main() {
      for (var i = 0; i < 10; i = i + 1) {
        mpi_allreduce(64);
      }
    })";
  auto a = cache.get(src);
  auto b = cache.get(src);
  EXPECT_EQ(a.get(), b.get());  // same compiled program, shared
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  ASSERT_NE(a->module, nullptr);
  ASSERT_NE(a->cst, nullptr);
}

TEST(Admission, QueueFullGetsRejectedBusy) {
  ServerConfig cfg;
  cfg.spoolDir = tmpDir("adm_queue");
  cfg.queueCapacity = 3;
  cfg.perClientCap = 100;
  JobServer server(cfg);  // never started: queue drains nowhere, so
                          // admission is exactly the queue bound
  int accepted = 0, rejected = 0;
  for (int i = 0; i < 10; ++i) {
    const auto r = server.submit(sampleSpec(), /*clientId=*/i);
    (r.accepted ? accepted : rejected)++;
    if (!r.accepted) {
      EXPECT_FALSE(r.message.empty());
    }
  }
  EXPECT_EQ(accepted, 3);
  EXPECT_EQ(rejected, 7);
  const Counters c = server.counters();
  EXPECT_EQ(c.submitted, 10u);
  EXPECT_EQ(c.accepted, 3u);
  EXPECT_EQ(c.rejectedBusy, 7u);
  EXPECT_EQ(c.rejectedClientCap, 0u);
}

TEST(Admission, PerClientInFlightCap) {
  ServerConfig cfg;
  cfg.spoolDir = tmpDir("adm_cap");
  cfg.queueCapacity = 100;
  cfg.perClientCap = 2;
  JobServer server(cfg);
  EXPECT_TRUE(server.submit(sampleSpec(), 1).accepted);
  EXPECT_TRUE(server.submit(sampleSpec(), 1).accepted);
  const auto third = server.submit(sampleSpec(), 1);
  EXPECT_FALSE(third.accepted);
  EXPECT_TRUE(third.clientCapped);
  // A different client is unaffected by client 1's cap.
  EXPECT_TRUE(server.submit(sampleSpec(), 2).accepted);
  EXPECT_EQ(server.counters().rejectedClientCap, 1u);
}

TEST(Admission, CancelQueuedJobFreesClientSlot) {
  ServerConfig cfg;
  cfg.spoolDir = tmpDir("adm_cancel");
  cfg.queueCapacity = 100;
  cfg.perClientCap = 1;
  JobServer server(cfg);
  const auto first = server.submit(sampleSpec(), 1);
  ASSERT_TRUE(first.accepted);
  EXPECT_FALSE(server.submit(sampleSpec(), 1).accepted);
  EXPECT_TRUE(server.cancel(first.jobId));
  const auto st = server.status(first.jobId);
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->state, JobState::Cancelled);
  EXPECT_TRUE(server.submit(sampleSpec(), 1).accepted);
}

TEST(Session, HandshakeThenSubmitRejectedBusy) {
  ServerConfig cfg;
  cfg.spoolDir = tmpDir("session_busy");
  cfg.queueCapacity = 0;  // admission refuses everything instantly
  JobServer server(cfg);
  Session session(server, 1);

  Request hello;
  hello.type = RequestType::Hello;
  auto out = session.consume(encodeFrame(hello.encode()));
  FrameDecoder d;
  d.feed(out);
  EXPECT_EQ(Response::decode(*d.next()).code, ResponseCode::HelloOk);

  Request submit;
  submit.type = RequestType::Submit;
  submit.spec = sampleSpec();
  out = session.consume(encodeFrame(submit.encode()));
  d.feed(out);
  const Response resp = Response::decode(*d.next());
  EXPECT_EQ(resp.code, ResponseCode::RejectedBusy);
  EXPECT_FALSE(resp.message.empty());
  EXPECT_FALSE(session.closed());
}

TEST(Session, HelloRequiredAndVersionChecked) {
  ServerConfig cfg;
  cfg.spoolDir = tmpDir("session_hello");
  JobServer server(cfg);
  {
    Session s(server, 1);
    Request list;
    list.type = RequestType::List;
    auto out = s.consume(encodeFrame(list.encode()));
    FrameDecoder d;
    d.feed(out);
    EXPECT_EQ(Response::decode(*d.next()).code, ResponseCode::Error);
    EXPECT_TRUE(s.closed());
  }
  {
    Session s(server, 1);
    Request hello;
    hello.type = RequestType::Hello;
    hello.helloVersion = kProtocolVersion + 1;
    auto out = s.consume(encodeFrame(hello.encode()));
    FrameDecoder d;
    d.feed(out);
    EXPECT_EQ(Response::decode(*d.next()).code, ResponseCode::Error);
    EXPECT_TRUE(s.closed());
  }
}

}  // namespace
}  // namespace cypress::service
