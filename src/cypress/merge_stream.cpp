#include "cypress/merge_stream.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "flate/stream.hpp"
#include "support/error.hpp"

namespace cypress::core {

namespace {

/// Size and CRC-32 of a written file: what BATCH and FINAL records hold.
struct FileTotals {
  uint64_t bytes = 0;
  uint32_t crc = 0;
};

/// Atomically write `m`'s CYPC to `path`: stream it through the
/// counting sink into the atomic writer, so the totals need no second
/// pass and the CYPC never exists as one buffer. With `expect` (the
/// recomputation of a checkpointed file), differing totals throw before
/// the rename, so a divergent file never reaches the name.
FileTotals writeCypc(io::IoBackend& io, const std::string& path,
                     const MergedCtt& m, const FileTotals* expect) {
  io::AtomicFileWriter out(io, path);
  flate::Crc32Sink counted(&out);
  ByteWriter w(counted);
  m.serializeTo(w);
  w.flush();
  const FileTotals got{counted.bytes(), counted.crc()};
  CYP_CHECK(!expect || (got.bytes == expect->bytes && got.crc == expect->crc),
            "manifest: recomputed " << path
                                    << " diverges from its checkpoint — the "
                                    << "rank traces changed since the "
                                    << "interrupted run");
  out.commit();
  return got;
}

}  // namespace

StreamingMergeResult streamingMerge(int numRanks, const CttSource& source,
                                    const cst::Tree& cst,
                                    const StreamingMergeOptions& opts) {
  CYP_CHECK(numRanks >= 1, "streamingMerge: need at least one rank");
  CYP_CHECK(!opts.workDir.empty(), "streamingMerge: workDir is required");
  io::IoBackend& io = opts.io ? *opts.io : io::realIo();
  io.createDirectories(opts.workDir);
  const std::string manifestPath = opts.workDir + "/merge.cym";
  auto abs = [&](const std::string& rel) { return opts.workDir + "/" + rel; };

  std::optional<ManifestRecovery> rec;
  if (opts.resume) {
    rec = recoverManifestFile(io, manifestPath);
    if (rec)
      CYP_CHECK(rec->numRanks == static_cast<uint64_t>(numRanks),
                "streamingMerge: resume rank count mismatch (manifest has "
                    << rec->numRanks << " ranks, caller asked for "
                    << numRanks
                    << ") — resume must merge the interrupted rank directory");
  }

  // The manifest is the resume protocol, not the result: with `degrade`
  // a manifest that can no longer be appended to (disk full) stops
  // checkpointing but not the merge.
  std::unique_ptr<ManifestWriter> writer;
  bool manifestAlive = true;
  try {
    writer = std::make_unique<ManifestWriter>(
        io, manifestPath, static_cast<uint64_t>(numRanks), opts.resume);
  } catch (const io::IoError&) {
    if (!opts.degrade) throw;
    manifestAlive = false;
  }

  // res.merged is the running total every batch folds into.
  StreamingMergeResult res{MergedCtt(cst), 0, 0, 0, 0, RankSet{}};
  std::vector<std::string> spillFiles;  // everything to clean up on success

  auto checkpoint = [&](const std::function<void()>& append) {
    ++res.stepsExecuted;
    if (!manifestAlive) return;
    try {
      append();
    } catch (const io::IoError&) {
      if (!opts.degrade) throw;
      manifestAlive = false;
      return;
    }
    if (opts.crashAfterSteps != 0 &&
        writer->segmentsWritten() >= opts.crashAfterSteps)
      std::raise(SIGKILL);
  };

  // A live batch closes when its accumulator crosses budget/4 or the
  // rank cap, so the total plus one batch stay inside the budget.
  const uint64_t leafBudget = opts.budgetBytes ? opts.budgetBytes / 4 : 0;

  struct Batch {
    MergedCtt acc;
    int count = 0;
    RankSet lost;
  };
  // `exactCount` > 0 recomputes a checkpointed batch of exactly that
  // many ranks; 0 cuts a live batch at the budget or the cap.
  auto computeBatch = [&](int firstRank, int exactCount) {
    Batch b{MergedCtt(cst), 0, RankSet{}};
    for (int r = firstRank; r < numRanks; ++r) {
      if (exactCount != 0 ? b.count == exactCount
                          : opts.maxBatchRanks != 0 &&
                                static_cast<uint64_t>(b.count) >=
                                    opts.maxBatchRanks)
        break;
      if (const std::optional<Ctt> ctt = source(r)) b.acc.absorb(*ctt, r);
      else b.lost.insert(r);
      ++b.count;
      // The budget closes a batch only once it holds a live CTT.
      if (exactCount == 0 && leafBudget != 0 &&
          b.lost.size() < static_cast<size_t>(b.count) &&
          b.acc.memoryBytes() > leafBudget)
        break;
    }
    return b;
  };

  std::vector<BatchRecord> recBatches;
  if (rec) recBatches = rec->batches;

  // A resume that finds FINAL and its output intact has nothing to
  // compute: the output is the result, and no spill is read.
  bool finalIntact = false;
  if (rec && rec->final && !opts.outPath.empty()) {
    const FinalRecord& f = *rec->final;
    CYP_CHECK(f.outPath == opts.outPath,
              "manifest: resume writes to " << f.outPath
                                            << ", caller asked for "
                                            << opts.outPath);
    if (const auto out = readIntactSpill(io, f.outPath, f.bytes, f.crc)) {
      res.merged = MergedCtt::deserialize(*out, cst);
      finalIntact = true;
    }
  }

  RankSet lostAll;  // every rank absent from the final tree
  uint64_t batchIndex = 0;
  int rank = 0;
  while (rank < numRanks) {
    if (batchIndex < recBatches.size()) {
      // Checkpointed batch (the manifest reader guarantees the batches
      // tile the ranks): fold its durable spill, or — if the file was
      // damaged behind the checkpoint — recompute exactly its ranks.
      // The batch is a union of equivalence classes, so the
      // recomputation matches the recorded bytes under any budget.
      const BatchRecord& b = recBatches[batchIndex];
      lostAll.unite(b.lostRanks);
      if (b.file.empty()) {
        res.droppedRanks.unite(b.lostRanks);
      } else if (finalIntact) {
        spillFiles.push_back(b.file);
      } else if (const auto payload = readIntactSpill(
                     io, abs(b.file), b.fileBytes, b.fileCrc)) {
        res.merged.absorb(MergedCtt::deserialize(*payload, cst));
        spillFiles.push_back(b.file);
      } else {
        Batch fresh = computeBatch(rank, b.rankCount);
        const FileTotals expect{b.fileBytes, b.fileCrc};
        writeCypc(io, abs(b.file), fresh.acc, &expect);
        res.merged.absorb(std::move(fresh.acc));
        spillFiles.push_back(b.file);
      }
      rank += b.rankCount;
      ++batchIndex;
      ++res.stepsResumed;
      continue;
    }

    Batch b = computeBatch(rank, 0);
    BatchRecord entry;
    entry.batchIndex = batchIndex;
    entry.firstRank = rank;
    entry.rankCount = b.count;
    entry.file = "b" + std::to_string(batchIndex) + ".cysp";
    entry.lostRanks = b.lost;
    bool spilled = true;
    try {
      const FileTotals tot = writeCypc(io, abs(entry.file), b.acc, nullptr);
      entry.fileBytes = tot.bytes;
      entry.fileCrc = tot.crc;
    } catch (const io::IoError&) {
      if (!opts.degrade) throw;
      spilled = false;
    }
    if (spilled) {
      spillFiles.push_back(entry.file);
    } else {
      // Graceful degradation: this batch's ranks are lost, the merge
      // lives on (the aborted atomic write left no file behind). The
      // empty-file record makes the drop durable so a later resume does
      // not resurrect the dropped ranks.
      entry.file.clear();
      entry.fileBytes = 0;
      entry.fileCrc = 0;
      for (int r = rank; r < rank + b.count; ++r) entry.lostRanks.insert(r);
      res.droppedRanks.unite(entry.lostRanks);
    }
    lostAll.unite(entry.lostRanks);
    checkpoint([&] { writer->appendBatch(entry); });
    if (spilled) res.merged.absorb(std::move(b.acc));
    rank += b.count;
    ++batchIndex;
  }
  res.batches = batchIndex;
  res.merged.markLost(lostAll);

  // ---- FINAL: atomic write of the merged CYPC -------------------------
  if (!opts.outPath.empty()) {
    if (rec && rec->final) {
      // The checkpoint outlived the artifact (e.g. a torn rename):
      // repair it from the deterministic result.
      if (!finalIntact) {
        const FileTotals expect{rec->final->bytes, rec->final->crc};
        writeCypc(io, opts.outPath, res.merged, &expect);
      }
      ++res.stepsResumed;
    } else {
      const FileTotals tot = writeCypc(io, opts.outPath, res.merged, nullptr);
      checkpoint([&] {
        writer->appendFinal(FinalRecord{opts.outPath, tot.bytes, tot.crc});
      });
    }
  }

  if (!opts.keepWorkDir) {
    // Success: the checkpoint has served its purpose. Best-effort — a
    // cleanup failure must not fail a completed merge.
    for (const std::string& f : spillFiles) {
      try {
        io.remove(abs(f));
      } catch (const Error&) {
      }
    }
    writer.reset();
    try {
      io.remove(manifestPath);
    } catch (const Error&) {
    }
  }
  return res;
}

}  // namespace cypress::core
