#include "cypress/merge_stream.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "flate/flate.hpp"
#include "flate/stream.hpp"
#include "support/error.hpp"

namespace cypress::core {

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
    std::optional<MergedCtt> acc;
    int count = 0;
    RankSet lost;
  };
  // `exactCount` > 0 recomputes a checkpointed batch of exactly that
  // many ranks; 0 cuts a live batch at the budget or the cap.
  auto computeBatch = [&](int firstRank, int exactCount) {
    Batch b;
    for (int r = firstRank; r < numRanks; ++r) {
      if (exactCount != 0 ? b.count == exactCount
                          : opts.maxBatchRanks != 0 &&
                                static_cast<uint64_t>(b.count) >=
                                    opts.maxBatchRanks)
        break;
      std::optional<Ctt> ctt = source(r);
      if (ctt) {
        MergedCtt one = MergedCtt::fromCtt(*ctt, r);
        if (!b.acc) b.acc.emplace(std::move(one));
        else b.acc->absorb(std::move(one));
      } else {
        b.lost.insert(r);
      }
      ++b.count;
      if (exactCount == 0 && b.acc && leafBudget != 0 &&
          b.acc->memoryBytes() > leafBudget)
        break;
    }
    return b;
  };
  // Serialize a batch straight into a spill sink: the CYPC stream goes
  // to disk in chunk-sized slices and never exists as one buffer. The
  // seal totals feed the BATCH record.
  auto spillBatch = [&](const Batch& b, const std::string& path) {
    SpillSink sink(io, path);
    ByteWriter w(sink);
    if (b.acc) b.acc->serializeTo(w);
    else MergedCtt(cst).serializeTo(w);
    w.flush();
    return sink.seal();
  };
  auto fold = [&](Batch& b) {
    if (b.acc) res.merged.absorb(std::move(*b.acc));
  };

  std::vector<BatchRecord> recBatches;
  if (rec) recBatches = rec->batches;

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
      } else if (const auto payload = readIntactSpill(
                     io, abs(b.file), b.fileBytes, b.fileCrc)) {
        res.merged.absorb(MergedCtt::deserialize(*payload, cst));
        spillFiles.push_back(b.file);
      } else {
        Batch fresh = computeBatch(rank, b.rankCount);
        const SpillSink::Totals tot = spillBatch(fresh, abs(b.file));
        CYP_CHECK(tot.bytes == b.fileBytes && tot.crc == b.fileCrc,
                  "manifest: recomputed batch "
                      << batchIndex
                      << " diverges from its checkpoint — the rank traces "
                      << "changed since the interrupted run");
        fold(fresh);
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
      const SpillSink::Totals tot = spillBatch(b, abs(entry.file));
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
      // lives on. The empty-file record makes the drop durable so a
      // later resume does not resurrect the dropped ranks.
      try {
        io.remove(abs(entry.file));
      } catch (const Error&) {
      }
      entry.file.clear();
      entry.fileBytes = 0;
      entry.fileCrc = 0;
      for (int r = rank; r < rank + b.count; ++r) entry.lostRanks.insert(r);
      res.droppedRanks.unite(entry.lostRanks);
    }
    lostAll.unite(entry.lostRanks);
    checkpoint([&] { writer->appendBatch(entry); });
    if (spilled) fold(b);
    rank += b.count;
    ++batchIndex;
  }
  res.batches = batchIndex;
  res.merged.markLost(lostAll);

  // ---- FINAL: atomic write of the merged CYPC -------------------------
  // Stream the merged CYPC through the atomic writer; the counting sink
  // supplies the checkpoint totals without a second pass. A repair
  // checks them against `expect` BEFORE the rename, so a divergent
  // recomputation never reaches the final name.
  auto writeFinal = [&](const FinalRecord* expect) {
    FinalRecord f;
    f.outPath = opts.outPath;
    io::AtomicFileWriter out(io, opts.outPath);
    flate::Crc32Sink counted(&out);
    ByteWriter w(counted);
    res.merged.serializeTo(w);
    w.flush();
    f.bytes = counted.bytes();
    f.crc = counted.crc();
    CYP_CHECK(!expect || (f.bytes == expect->bytes && f.crc == expect->crc),
              "manifest: final artifact diverges from its checkpoint");
    out.commit();
    return f;
  };
  if (!opts.outPath.empty()) {
    if (rec && rec->final) {
      const FinalRecord& f = *rec->final;
      CYP_CHECK(f.outPath == opts.outPath,
                "manifest: resume writes to " << f.outPath
                                              << ", caller asked for "
                                              << opts.outPath);
      bool intact = false;
      if (io.exists(opts.outPath)) {
        try {
          const auto cur = io.readAll(opts.outPath);
          intact = cur.size() == f.bytes && flate::crc32(cur) == f.crc;
        } catch (const Error&) {
        }
      }
      // The checkpoint outlived the artifact (e.g. a torn rename):
      // verify-and-repair from the deterministic result.
      if (!intact) writeFinal(&f);
      ++res.stepsResumed;
    } else {
      const FinalRecord f = writeFinal(nullptr);
      checkpoint([&] { writer->appendFinal(f); });
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
