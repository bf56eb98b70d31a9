// Property-based end-to-end fuzzing: generate random (but deadlock-free)
// structured MPI programs from a template grammar, run the full pipeline,
// and require exact lossless round trips for both CYPRESS and ScalaTrace,
// a successful SIM-MPI replay of the decompressed trace, the same
// `cyptrace stats` text from the compressed and the decompressed form,
// and the same CYPC bytes from every merge plan and thread count.
//
// The generator composes only communication-safe templates (collectives,
// ring exchanges, paired even/odd exchanges, non-blocking + waitall,
// wildcard gathers), arbitrarily nested in loops, iteration-parity
// branches and helper functions — covering the cross product of
// structure handling paths in one sweep.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>

#include "cypress/decompress.hpp"
#include "cypress/merge_stream.hpp"
#include "driver/pipeline.hpp"
#include "query/engine.hpp"
#include "replay/simulator.hpp"
#include "scalatrace/inter.hpp"
#include "support/rng.hpp"
#include "trace/matrix.hpp"
#include "trace/stats.hpp"

namespace cypress {
namespace {

class ProgramGenerator {
 public:
  explicit ProgramGenerator(uint64_t seed) : rng_(seed) {}

  std::string generate() {
    helpers_.clear();
    loopStack_.clear();
    std::ostringstream main;
    main << "func main() {\n";
    emitBody(main, /*depth=*/0);
    main << "}\n";
    std::ostringstream out;
    for (const auto& h : helpers_) out << h;
    out << main.str();
    return out.str();
  }

 private:
  Rng rng_;
  std::vector<std::string> helpers_;
  std::vector<std::string> loopStack_;  // loop variables in scope
  int loopVar_ = 0;
  int reqVar_ = 0;

  std::string freshLoopVar() { return "i" + std::to_string(loopVar_++); }
  std::string freshReqVar() { return "r" + std::to_string(reqVar_++); }

  void indent(std::ostringstream& os, int depth) {
    for (int i = 0; i <= depth; ++i) os << "  ";
  }

  void emitBody(std::ostringstream& os, int depth) {
    const int stmts = static_cast<int>(rng_.range(1, depth >= 2 ? 2 : 4));
    for (int s = 0; s < stmts; ++s) emitStmt(os, depth);
  }

  void emitStmt(std::ostringstream& os, int depth) {
    const int maxKind = depth >= 3 ? 5 : 11;
    switch (rng_.below(static_cast<uint64_t>(maxKind))) {
      case 0: {  // collective
        indent(os, depth);
        switch (rng_.below(4)) {
          case 0: os << "mpi_allreduce(" << rng_.range(4, 64) * 8 << ");\n"; break;
          case 1: os << "mpi_barrier();\n"; break;
          case 2: os << "mpi_bcast(0, " << rng_.range(8, 512) * 8 << ");\n"; break;
          default: os << "mpi_reduce(0, " << rng_.range(1, 32) * 8 << ");\n"; break;
        }
        return;
      }
      case 1: {  // ring exchange (eager sends make this safe)
        const int d = static_cast<int>(rng_.range(1, 3));
        const int bytes = static_cast<int>(rng_.range(16, 2048));
        const int tag = static_cast<int>(rng_.range(0, 5));
        indent(os, depth);
        os << "mpi_send((rank + " << d << ") % size, " << bytes << ", " << tag
           << ");\n";
        indent(os, depth);
        os << "mpi_recv((rank + size - " << d << ") % size, " << bytes << ", "
           << tag << ");\n";
        return;
      }
      case 2: {  // non-blocking + waitall (or explicit waits)
        const std::string a = freshReqVar();
        const std::string b = freshReqVar();
        const int bytes = static_cast<int>(rng_.range(8, 4096));
        const int tag = static_cast<int>(rng_.range(6, 9));
        indent(os, depth);
        os << "var " << a << " = mpi_isend((rank + 1) % size, " << bytes << ", "
           << tag << ");\n";
        indent(os, depth);
        os << "var " << b << " = mpi_irecv((rank + size - 1) % size, " << bytes
           << ", " << tag << ");\n";
        if (rng_.chance(0.5)) {
          indent(os, depth);
          os << "mpi_waitall();\n";
        } else {
          indent(os, depth);
          os << "mpi_wait(" << a << ");\n";
          indent(os, depth);
          os << "mpi_wait(" << b << ");\n";
        }
        return;
      }
      case 3: {  // compute
        indent(os, depth);
        os << "compute(" << rng_.range(1000, 100000) << ");\n";
        return;
      }
      case 4: {  // iteration-parity branch (same outcome on every rank)
        if (loopStack_.empty()) {
          indent(os, depth);
          os << "compute(500);\n";
          return;
        }
        const std::string& v = loopStack_.back();
        indent(os, depth);
        os << "if (" << v << " % 2 == 0) {\n";
        emitBody(os, depth + 1);
        indent(os, depth);
        if (rng_.chance(0.5)) {
          os << "} else {\n";
          emitBody(os, depth + 1);
          indent(os, depth);
        }
        os << "}\n";
        return;
      }
      case 5: {  // counted loop
        const std::string v = freshLoopVar();
        const int n = static_cast<int>(rng_.range(0, 6));
        indent(os, depth);
        os << "for (var " << v << " = 0; " << v << " < " << n << "; " << v
           << " = " << v << " + 1) {\n";
        loopStack_.push_back(v);
        emitBody(os, depth + 1);
        loopStack_.pop_back();
        indent(os, depth);
        os << "}\n";
        return;
      }
      case 6: {  // wildcard gather to rank 0
        indent(os, depth);
        os << "if (rank != 0) { mpi_send(0, 64, 77); }\n";
        indent(os, depth);
        os << "if (rank == 0) {\n";
        const int g = loopVar_++;
        indent(os, depth + 1);
        os << "for (var g" << g << " = 1; g" << g << " < size; g" << g
           << " = g" << g << " + 1) { mpi_recv(ANY_SOURCE, 64, 77); }\n";
        indent(os, depth);
        os << "}\n";
        return;
      }
      case 7: {  // paired even/odd neighbour exchange (size must be even)
        const int bytes = static_cast<int>(rng_.range(32, 1024));
        indent(os, depth);
        os << "if (rank % 2 == 0) { mpi_send(rank + 1, " << bytes
           << ", 90); mpi_recv(rank + 1, " << bytes << ", 91); }\n";
        indent(os, depth);
        os << "else { mpi_recv(rank - 1, " << bytes << ", 90); mpi_send(rank - 1, "
           << bytes << ", 91); }\n";
        return;
      }
      case 9: {  // mpi_sendrecv sugar
        const int bytes = static_cast<int>(rng_.range(16, 512));
        const int tag = static_cast<int>(rng_.range(50, 55));
        indent(os, depth);
        os << "mpi_sendrecv((rank + 1) % size, " << bytes << ", " << tag
           << ", (rank + size - 1) % size, " << bytes << ", " << tag << ");\n";
        return;
      }
      case 10: {  // non-blocking pair drained by waitsome + waitall
        const std::string a = freshReqVar();
        const std::string b = freshReqVar();
        const int bytes = static_cast<int>(rng_.range(8, 256));
        indent(os, depth);
        os << "var " << a << " = mpi_isend((rank + 2) % size, " << bytes
           << ", 60);\n";
        indent(os, depth);
        os << "var " << b << " = mpi_irecv((rank + size - 2) % size, " << bytes
           << ", 60);\n";
        indent(os, depth);
        os << "mpi_waitsome();\n";
        indent(os, depth);
        os << "mpi_waitall();\n";
        return;
      }
      default: {  // helper function call (flat body, no nested helpers)
        const std::string name = "helper" + std::to_string(helpers_.size());
        std::ostringstream h;
        h << "func " << name << "(bytes) {\n";
        h << "  mpi_send((rank + 1) % size, bytes, 40);\n";
        h << "  mpi_recv((rank + size - 1) % size, bytes, 40);\n";
        if (rng_.chance(0.5)) h << "  mpi_allreduce(24);\n";
        h << "}\n";
        helpers_.push_back(h.str());
        indent(os, depth);
        os << name << "(" << rng_.range(8, 512) << ");\n";
        return;
      }
    }
  }
};

std::vector<trace::Event> contentOnly(std::vector<trace::Event> ev) {
  for (auto& e : ev) {
    e.computeNs = 0;
    e.durationNs = 0;
  }
  return ev;
}

class FuzzPipeline : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzPipeline, RandomProgramRoundTripsThroughEverything) {
  ProgramGenerator gen(GetParam());
  // A communicator-split preamble so sub-communicator collectives are
  // also exercised (pairs of consecutive ranks).
  std::string src = gen.generate();
  const std::string pre =
      "func main() {\n"
      "  var cpair = mpi_comm_split(rank / 2, rank);\n"
      "  mpi_allreduce_c(cpair, 16);\n";
  src.replace(src.find("func main() {\n"), std::string("func main() {\n").size(),
              pre);
  SCOPED_TRACE("program:\n" + src);

  driver::Options opts;
  opts.procs = 6;  // even (template 7 requires it), with wrap-around cases
  driver::RunOutput run = driver::runSource("fuzz", src, opts);

  // CYPRESS: exact per-rank round trip.
  core::MergedCtt merged = driver::mergeCypress(run);
  for (int r = 0; r < opts.procs; ++r) {
    auto got = contentOnly(core::decompressRank(merged, r));
    auto want = contentOnly(run.raw.ranks[static_cast<size_t>(r)].events);
    ASSERT_EQ(got.size(), want.size()) << "rank " << r;
    for (size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(got[i], want[i]) << "rank " << r << " event " << i;
  }

  // ScalaTrace V1: exact per-rank round trip through the merged form.
  std::vector<const std::vector<scalatrace::Element>*> seqs;
  for (const auto& rec : run.scala) seqs.push_back(&rec->sequence());
  auto st = scalatrace::mergeSequences(seqs, scalatrace::Flavor::V1);
  for (int r = 0; r < opts.procs; ++r) {
    ASSERT_EQ(contentOnly(scalatrace::decompressRank(st, r)),
              contentOnly(run.raw.ranks[static_cast<size_t>(r)].events))
        << "rank " << r;
  }

  // The decompressed trace must replay cleanly in SIM-MPI, replaying
  // the compressed form must predict exactly the same, and `cyptrace
  // stats` read off the compressed form must print exactly what a scan
  // of the decompressed trace prints.
  if (run.raw.totalEvents() > 0) {
    trace::RawTrace dec = core::decompressAll(merged, opts.procs);
    replay::Prediction p = replay::simulate(dec);
    EXPECT_EQ(p.totalEvents, run.raw.totalEvents());
    const replay::Prediction direct = replay::simulate(merged);
    EXPECT_EQ(direct.predictedNs, p.predictedNs);
    EXPECT_EQ(direct.totalEvents, p.totalEvents);
    EXPECT_EQ(direct.rankClockNs, p.rankClockNs);
    EXPECT_EQ(direct.rankCommNs, p.rankCommNs);
    ASSERT_EQ(query::rankSpan(merged), opts.procs);
    const trace::TraceStats st = query::traceStats(merged);
    const trace::TraceStats want = trace::computeStats(dec);
    EXPECT_TRUE(st == want) << st.toString();
    EXPECT_EQ(st.toString() +
                  query::heatMap(query::commMatrix(merged), opts.procs),
              want.toString() + trace::renderMatrix(trace::commMatrix(dec)));
  }

  // Serialization round trip of the merged CYPRESS trace.
  auto bytes = merged.serialize();
  cst::Tree tree;
  core::MergedCtt back = core::MergedCtt::deserializeWithTree(bytes, tree);
  for (int r = 0; r < opts.procs; ++r) {
    EXPECT_EQ(contentOnly(core::decompressRank(back, r)),
              contentOnly(core::decompressRank(merged, r)));
  }

  // One CYPC per trace: a streaming merge in batches of two ranks (each
  // folded into one running total) and a run on four threads write the
  // same bytes.
  core::StreamingMergeOptions mo;
  mo.maxBatchRanks = 2;
  mo.workDir = (std::filesystem::temp_directory_path() /
                ("cyp_fuzz_merge." + std::to_string(getpid())))
                   .string();
  const auto streamed = core::streamingMerge(
      opts.procs,
      [&](int r) {
        return std::optional<core::Ctt>(run.cypress[static_cast<size_t>(r)]->ctt());
      },
      *run.cst, mo);
  EXPECT_EQ(streamed.merged.serialize(), bytes);
  std::filesystem::remove_all(mo.workDir);
  opts.threads = 4;
  const driver::RunOutput threaded = driver::runSource("fuzz", src, opts);
  EXPECT_EQ(driver::mergeCypress(threaded).serialize(), bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline, ::testing::Range<uint64_t>(0, 64));

}  // namespace
}  // namespace cypress
