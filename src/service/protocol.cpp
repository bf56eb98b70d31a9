#include "service/protocol.hpp"

#include <cstring>

#include "flate/flate.hpp"
#include "support/error.hpp"

namespace cypress::service {

namespace {

constexpr uint8_t kFrameMagic[4] = {'C', 'Y', 'S', '1'};
constexpr size_t kFrameHeaderBytes = 12;  // magic + payloadLen + crc

uint32_t readU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

JobKind decodeKind(uint8_t v) {
  CYP_CHECK(v <= static_cast<uint8_t>(JobKind::Query),
            "protocol: unknown job kind " << int(v));
  return static_cast<JobKind>(v);
}

JobState decodeState(uint8_t v) {
  CYP_CHECK(v <= static_cast<uint8_t>(JobState::FailedDisk),
            "protocol: unknown job state " << int(v));
  return static_cast<JobState>(v);
}

}  // namespace

bool isTerminal(JobState s) {
  return s == JobState::Done || s == JobState::Failed ||
         s == JobState::Cancelled || s == JobState::FailedDisk;
}

const char* toString(JobKind k) {
  switch (k) {
    case JobKind::Run: return "run";
    case JobKind::Compress: return "compress";
    case JobKind::Verify: return "verify";
    case JobKind::Recover: return "recover";
    case JobKind::Query: return "query";
  }
  return "?";
}

const char* toString(JobState s) {
  switch (s) {
    case JobState::Accepted: return "ACCEPTED";
    case JobState::Running: return "RUNNING";
    case JobState::Done: return "DONE";
    case JobState::Failed: return "FAILED";
    case JobState::Cancelled: return "CANCELLED";
    case JobState::FailedDisk: return "FAILED_DISK";
  }
  return "?";
}

std::vector<uint8_t> encodeFrame(std::span<const uint8_t> payload) {
  CYP_CHECK(payload.size() <= kMaxFramePayload,
            "frame payload of " << payload.size() << " bytes exceeds the "
                                << kMaxFramePayload << "-byte cap");
  ByteWriter w;
  w.raw(std::span<const uint8_t>(kFrameMagic, 4));
  w.u32fixed(static_cast<uint32_t>(payload.size()));
  w.u32fixed(flate::crc32(payload));
  w.raw(payload);
  return w.take();
}

void FrameDecoder::feed(std::span<const uint8_t> bytes) {
  // Compact the consumed prefix before growing, so a long-lived
  // connection does not accumulate every frame it ever received.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > kMaxFramePayload) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

std::optional<std::vector<uint8_t>> FrameDecoder::next() {
  const size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) return std::nullopt;
  const uint8_t* h = buf_.data() + pos_;
  CYP_CHECK(std::memcmp(h, kFrameMagic, 4) == 0, "frame: bad magic");
  const uint32_t len = readU32(h + 4);
  // The length is validated before any buffering decision, so an
  // oversized prefix is rejected immediately instead of making the
  // decoder wait for (and buffer toward) gigabytes that never arrive.
  CYP_CHECK(len <= kMaxFramePayload,
            "frame: payload length " << len << " exceeds the "
                                     << kMaxFramePayload << "-byte cap");
  const uint32_t crc = readU32(h + 8);
  if (avail < kFrameHeaderBytes + len) return std::nullopt;
  std::span<const uint8_t> payload(h + kFrameHeaderBytes, len);
  CYP_CHECK(flate::crc32(payload) == crc, "frame: payload CRC mismatch");
  std::vector<uint8_t> out(payload.begin(), payload.end());
  pos_ += kFrameHeaderBytes + len;
  return out;
}

void JobSpec::serialize(ByteWriter& w) const {
  w.u8(static_cast<uint8_t>(kind));
  w.str(target);
  w.str(sourceText);
  w.uv(procs);
  w.uv(scale);
  w.uv(faultSpecs.size());
  for (const auto& f : faultSpecs) w.str(f);
  w.u8(faultsTransient ? 1 : 0);
  w.uv(deadlineMs);
  w.uv(maxAttempts);
  w.str(querySpec);
}

JobSpec JobSpec::deserialize(ByteReader& r) {
  JobSpec s;
  s.kind = decodeKind(r.u8());
  s.target = r.str();
  s.sourceText = r.str();
  s.procs = static_cast<uint32_t>(r.uv());
  s.scale = static_cast<uint32_t>(r.uv());
  CYP_CHECK(s.procs >= 1 && s.procs <= 1u << 20,
            "protocol: implausible procs " << s.procs);
  CYP_CHECK(s.scale >= 1 && s.scale <= 1u << 20,
            "protocol: implausible scale " << s.scale);
  const uint64_t nf = r.checkedCount(r.uv(), 1);
  s.faultSpecs.reserve(nf);
  for (uint64_t i = 0; i < nf; ++i) s.faultSpecs.push_back(r.str());
  const uint8_t t = r.u8();
  CYP_CHECK(t <= 1, "protocol: bad faultsTransient flag " << int(t));
  s.faultsTransient = t == 1;
  s.deadlineMs = r.uv();
  s.maxAttempts = static_cast<uint32_t>(r.uv());
  CYP_CHECK(s.maxAttempts <= 1000,
            "protocol: implausible attempt budget " << s.maxAttempts);
  s.querySpec = r.str();
  return s;
}

void JobStatus::serialize(ByteWriter& w) const {
  w.uv(id);
  w.u8(static_cast<uint8_t>(state));
  w.uv(attempts);
  w.str(detail);
  w.str(artifactPath);
  w.str(journalPath);
  w.uv(artifactBytes);
  w.uv(errnoValue);
}

JobStatus JobStatus::deserialize(ByteReader& r) {
  JobStatus s;
  s.id = r.uv();
  s.state = decodeState(r.u8());
  s.attempts = static_cast<uint32_t>(r.uv());
  s.detail = r.str();
  s.artifactPath = r.str();
  s.journalPath = r.str();
  s.artifactBytes = r.uv();
  s.errnoValue = static_cast<uint32_t>(r.uv());
  return s;
}

void Counters::serialize(ByteWriter& w) const {
  w.uv(submitted);
  w.uv(accepted);
  w.uv(rejectedBusy);
  w.uv(rejectedClientCap);
  w.uv(done);
  w.uv(failed);
  w.uv(failedDisk);
  w.uv(cancelled);
  w.uv(retries);
  w.uv(cacheHits);
  w.uv(cacheMisses);
}

Counters Counters::deserialize(ByteReader& r) {
  Counters c;
  c.submitted = r.uv();
  c.accepted = r.uv();
  c.rejectedBusy = r.uv();
  c.rejectedClientCap = r.uv();
  c.done = r.uv();
  c.failed = r.uv();
  c.failedDisk = r.uv();
  c.cancelled = r.uv();
  c.retries = r.uv();
  c.cacheHits = r.uv();
  c.cacheMisses = r.uv();
  return c;
}

std::vector<uint8_t> Request::encode() const {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(type));
  switch (type) {
    case RequestType::Hello:
      w.uv(helloVersion);
      break;
    case RequestType::Submit:
      spec.serialize(w);
      break;
    case RequestType::Status:
    case RequestType::Cancel:
      w.uv(jobId);
      break;
    case RequestType::Wait:
      w.uv(jobId);
      w.uv(timeoutMs);
      break;
    case RequestType::List:
    case RequestType::Counters:
    case RequestType::Shutdown:
      break;
  }
  return w.take();
}

Request Request::decode(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  Request req;
  const uint8_t t = r.u8();
  CYP_CHECK(t <= static_cast<uint8_t>(RequestType::Shutdown),
            "protocol: unknown request type " << int(t));
  req.type = static_cast<RequestType>(t);
  switch (req.type) {
    case RequestType::Hello:
      req.helloVersion = static_cast<uint32_t>(r.uv());
      break;
    case RequestType::Submit:
      req.spec = JobSpec::deserialize(r);
      break;
    case RequestType::Status:
    case RequestType::Cancel:
      req.jobId = r.uv();
      break;
    case RequestType::Wait:
      req.jobId = r.uv();
      req.timeoutMs = r.uv();
      break;
    case RequestType::List:
    case RequestType::Counters:
    case RequestType::Shutdown:
      break;
  }
  CYP_CHECK(r.atEnd(), "protocol: trailing bytes in request");
  return req;
}

std::vector<uint8_t> Response::encode() const {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(code));
  switch (code) {
    case ResponseCode::HelloOk:
      w.uv(helloVersion);
      break;
    case ResponseCode::Accepted:
      w.uv(jobId);
      break;
    case ResponseCode::RejectedBusy:
    case ResponseCode::Error:
      w.str(message);
      w.uv(errnoValue);
      break;
    case ResponseCode::Status:
      status.serialize(w);
      break;
    case ResponseCode::JobList:
      w.uv(jobs.size());
      for (const auto& j : jobs) j.serialize(w);
      break;
    case ResponseCode::Counters:
      counters.serialize(w);
      break;
    case ResponseCode::NotFound:
    case ResponseCode::ShuttingDown:
      break;
  }
  return w.take();
}

Response Response::decode(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  Response resp;
  const uint8_t c = r.u8();
  CYP_CHECK(c <= static_cast<uint8_t>(ResponseCode::Error),
            "protocol: unknown response code " << int(c));
  resp.code = static_cast<ResponseCode>(c);
  switch (resp.code) {
    case ResponseCode::HelloOk:
      resp.helloVersion = static_cast<uint32_t>(r.uv());
      break;
    case ResponseCode::Accepted:
      resp.jobId = r.uv();
      break;
    case ResponseCode::RejectedBusy:
    case ResponseCode::Error:
      resp.message = r.str();
      resp.errnoValue = static_cast<uint32_t>(r.uv());
      break;
    case ResponseCode::Status:
      resp.status = JobStatus::deserialize(r);
      break;
    case ResponseCode::JobList: {
      const uint64_t n = r.checkedCount(r.uv(), 7);
      resp.jobs.reserve(n);
      for (uint64_t i = 0; i < n; ++i)
        resp.jobs.push_back(JobStatus::deserialize(r));
      break;
    }
    case ResponseCode::Counters:
      resp.counters = Counters::deserialize(r);
      break;
    case ResponseCode::NotFound:
    case ResponseCode::ShuttingDown:
      break;
  }
  CYP_CHECK(r.atEnd(), "protocol: trailing bytes in response");
  return resp;
}

}  // namespace cypress::service
