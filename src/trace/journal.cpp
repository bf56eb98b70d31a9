#include "trace/journal.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "trace/segment_log.hpp"

namespace cypress::trace {

namespace {

constexpr uint8_t kEventsSegment = 0;
constexpr uint8_t kFinalizeSegment = 1;
constexpr uint8_t kSealSegment = 2;

constexpr SegmentLogFormat kJournalFormat{"journal", "CYJ1", 1, kSealSegment};

/// Cap on the rank count in a journal header (matches RankSet's bound on
/// deserialized set sizes): far above any simulated job, far below OOM.
constexpr uint64_t kMaxJournalRanks = RankSet::kMaxSerializedRanks;

}  // namespace

JournalBuilder::JournalBuilder(int numRanks, Sink sink)
    : sink_(std::move(sink)), numRanks_(numRanks) {
  CYP_CHECK(numRanks >= 1, "journal needs at least one rank");
  const uint64_t header[] = {static_cast<uint64_t>(numRanks)};
  writeSegmentHeader(w_, kJournalFormat, header);
  handOff();
}

void JournalBuilder::handOff() {
  // The sink owns the stream: it gets the new chunk, the builder keeps
  // no copy. Without a sink the chunk stays in w_.
  if (sink_) sink_(w_.take());
}

void JournalBuilder::segment(uint8_t kind, const ByteWriter& payload) {
  CYP_CHECK(!sealed_, "journal: segment appended after the seal");
  frameSegment(w_, kind, payload.bytes());
  handOff();
}

void JournalBuilder::appendEvents(int rank, std::span<const Event> events) {
  CYP_CHECK(rank >= 0 && rank < numRanks_, "journal: bad rank " << rank);
  if (events.empty()) return;
  ByteWriter p;
  p.uv(static_cast<uint64_t>(rank));
  p.uv(events.size());
  for (const Event& e : events) serializeEvent(e, p);
  segment(kEventsSegment, p);
  totalEvents_ += events.size();
}

void JournalBuilder::appendFinalize(int rank) {
  CYP_CHECK(rank >= 0 && rank < numRanks_, "journal: bad rank " << rank);
  ByteWriter p;
  p.uv(static_cast<uint64_t>(rank));
  segment(kFinalizeSegment, p);
}

void JournalBuilder::seal(const RankSet& lostRanks) {
  ByteWriter p;
  lostRanks.serialize(p);
  p.uv(totalEvents_);
  segment(kSealSegment, p);
  sealed_ = true;
}

JournalRecorder::JournalRecorder(JournalBuilder& builder, int rank,
                                 size_t flushEvery)
    : builder_(builder), rank_(rank),
      flushEvery_(std::max<size_t>(flushEvery, 1)) {
  buf_.reserve(flushEvery_);
}

void JournalRecorder::onEvent(const Event& e) {
  buf_.push_back(e);
  ++eventsSeen_;
  if (buf_.size() >= flushEvery_) flush();
}

void JournalRecorder::flush() {
  builder_.appendEvents(rank_, buf_);
  buf_.clear();
}

void JournalRecorder::onFinalize() {
  flush();
  builder_.appendFinalize(rank_);
  finalized_ = true;
}

std::vector<int> JournalRecovery::unfinalizedRanks() const {
  std::vector<int> out;
  for (const RankTrace& rt : trace.ranks) {
    if (std::find(finalizedRanks.begin(), finalizedRanks.end(), rt.rank) !=
        finalizedRanks.end())
      continue;
    if (lostRanks.contains(rt.rank)) continue;
    out.push_back(rt.rank);
  }
  return out;
}

namespace {

JournalRecovery readJournal(std::span<const uint8_t> data, bool strict) {
  ByteReader r(data);
  // Header damage is unrecoverable in both modes: without the magic and
  // rank count there is nothing to salvage against.
  const uint64_t nRanks = readSegmentHeader(r, kJournalFormat)[0];
  CYP_CHECK(nRanks >= 1 && nRanks <= kMaxJournalRanks,
            "journal: implausible rank count " << nRanks);
  r.chargeAlloc(nRanks * sizeof(RankTrace));

  JournalRecovery out;
  out.trace.ranks.resize(nRanks);
  for (uint64_t i = 0; i < nRanks; ++i)
    out.trace.ranks[i].rank = static_cast<int32_t>(i);

  uint64_t eventsSeen = 0;
  // Each case parses its payload fully into locals before mutating the
  // recovery state, so a half-valid segment commits nothing.
  auto visit = [&](uint8_t kind, std::span<const uint8_t> payload) {
    CYP_CHECK(!out.sealed, "journal: segment after the seal");
    ByteReader p(payload);
    switch (kind) {
      case kEventsSegment: {
        const uint64_t rank = p.uv();
        CYP_CHECK(rank < nRanks, "journal: event segment for rank "
                                     << rank << " of " << nRanks);
        const uint64_t ne = p.checkedCount(p.uv(), 10);
        p.chargeAlloc(ne * sizeof(Event));
        std::vector<Event> events;
        events.reserve(ne);
        for (uint64_t k = 0; k < ne; ++k) events.push_back(deserializeEvent(p));
        CYP_CHECK(p.atEnd(), "journal: trailing bytes in event segment");
        auto& dst = out.trace.ranks[rank].events;
        dst.insert(dst.end(), events.begin(), events.end());
        eventsSeen += ne;
        break;
      }
      case kFinalizeSegment: {
        const uint64_t rank = p.uv();
        CYP_CHECK(rank < nRanks, "journal: finalize for rank " << rank << " of "
                                                              << nRanks);
        CYP_CHECK(p.atEnd(), "journal: trailing bytes in finalize segment");
        const int rk = static_cast<int>(rank);
        CYP_CHECK(std::find(out.finalizedRanks.begin(),
                            out.finalizedRanks.end(),
                            rk) == out.finalizedRanks.end(),
                  "journal: rank " << rank << " finalized twice");
        out.finalizedRanks.push_back(rk);
        break;
      }
      case kSealSegment: {
        RankSet lost = RankSet::deserialize(p);
        const uint64_t total = p.uv();
        CYP_CHECK(p.atEnd(), "journal: trailing bytes in seal segment");
        CYP_CHECK(total == eventsSeen, "journal: seal claims "
                                           << total << " events, journal has "
                                           << eventsSeen);
        for (int32_t rk : lost.ranks())
          CYP_CHECK(static_cast<uint64_t>(rk) < nRanks,
                    "journal: lost rank " << rk << " of " << nRanks);
        out.lostRanks = std::move(lost);
        out.sealed = true;
        break;
      }
    }
  };
  const SegmentWalk walk = walkSegments(
      r, kJournalFormat, strict ? WalkMode::Strict : WalkMode::Salvage, visit);
  out.segmentsRecovered = walk.segments;
  out.bytesDiscarded = walk.bytesDiscarded;
  if (strict)
    CYP_CHECK(out.sealed, "journal: not sealed (torn or still being written)");
  return out;
}

}  // namespace

JournalRecovery recoverJournal(std::span<const uint8_t> data) {
  return readJournal(data, /*strict=*/false);
}

JournalRecovery parseJournal(std::span<const uint8_t> data) {
  return readJournal(data, /*strict=*/true);
}

}  // namespace cypress::trace
