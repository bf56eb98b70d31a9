// cyperf — end-to-end pipeline stage timings across thread counts.
//
// Times each stage of `cyptrace run --emit-ranks` by calling the same
// driver functions the tool calls: compile (compileForTracing), run
// (runSource, CYPRESS only), build (writeRankTraces), merge
// (mergeCypress) and write (writeTrace), on fig15 NPB workloads at
// procs >= 32 for threads in {1,2,4,8}. Artifacts go to a temporary
// directory that is removed after each rep. It prints a table and
// writes BENCH_pipeline.json so future changes have a perf trajectory
// to regress against; the rss_peak_kb marks regress the streaming
// property (no stage materializes a full serialized trace). Three
// extra sections: a streamed-vs-materialized head-to-head on the
// biggest payload, a compressed-size-vs-P sweep (64/512/4096) against
// the ScalaTrace and gzip baselines, and a query-vs-P sweep over the
// same runs charting the compressed-domain comm-matrix query against
// its decompress-then-scan oracle. Rows where threads exceed
// hardware_concurrency are flagged (`*`, and "oversubscribed" in the
// JSON) since they cannot show real scaling.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cypress/decompress.hpp"
#include "driver/pipeline.hpp"
#include "flate/flate.hpp"
#include "flate/stream.hpp"
#include "query/engine.hpp"
#include "support/io.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"
#include "workloads/workloads.hpp"

using namespace cypress;

namespace {

struct Stages {
  double compile = 0, run = 0, build = 0, merge = 0, write = 0;
  // ru_maxrss (KiB) sampled before AND after each stage, recording the
  // max — so allocations that live only inside a stage still show up in
  // its mark even on platforms where the counter reads current rather
  // than peak RSS. On Linux the kernel counter is a monotone
  // process-wide high-water mark, so rssKb[i] reads as "peak RSS up to
  // and including stage i", and only the first rep of the first row
  // sees fresh marks — later samples inherit whatever high water
  // earlier work already set.
  uint64_t rssKb[5] = {};
  double total() const { return compile + run + build + merge + write; }
};

Stages timeOnce(const std::string& name, int procs, int threads) {
  namespace fs = std::filesystem;
  const std::string source = workloads::get(name).source(procs, 1);
  const std::string dir =
      (fs::temp_directory_path() / ("cyperf." + std::to_string(getpid())))
          .string();
  fs::remove_all(dir);
  Stages t;
  Stopwatch sw;

  // Pre-stage RSS sample; stampRss records max(before, after) for the
  // stage just finished and rolls the sample forward.
  uint64_t rssBefore = io::peakRssBytes();
  auto stampRss = [&](int i) {
    const uint64_t after = io::peakRssBytes();
    t.rssKb[i] = std::max(rssBefore, after) >> 10;
    rssBefore = after;
  };

  driver::Options opts;
  opts.procs = procs;
  opts.threads = threads;
  opts.withRaw = false;
  opts.withScala = false;
  opts.withScala2 = false;
  opts.precompiled = driver::compileForTracing(source);
  t.compile = sw.seconds();
  stampRss(0);

  sw.restart();
  const driver::RunOutput run = driver::runSource(name, source, opts);
  t.run = sw.seconds();
  stampRss(1);

  sw.restart();
  driver::writeRankTraces(run, dir, nullptr, threads);
  t.build = sw.seconds();
  stampRss(2);

  sw.restart();
  const core::MergedCtt merged = driver::mergeCypress(run, nullptr, threads);
  t.merge = sw.seconds();
  stampRss(3);

  sw.restart();
  driver::writeTrace(merged, dir + "/trace.cyp");
  t.write = sw.seconds();
  stampRss(4);

  fs::remove_all(dir);
  return t;
}

Stages bestOf(const std::string& name, int procs, int threads, int reps) {
  Stages best;
  uint64_t rep0Rss[5] = {};
  for (int i = 0; i < reps; ++i) {
    Stages t = timeOnce(name, procs, threads);
    if (i == 0) std::copy(std::begin(t.rssKb), std::end(t.rssKb), rep0Rss);
    if (i == 0 || t.total() < best.total()) best = t;
  }
  // Timing takes the best rep; RSS must take the FIRST, because the
  // high-water mark never recedes between reps.
  std::copy(std::begin(rep0Rss), std::end(rep0Rss), best.rssKb);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string outPath = argc > 1 ? argv[1] : "BENCH_pipeline.json";
  const std::vector<std::pair<std::string, int>> targets = {
      {"CG", 64}, {"LU", 64}, {"BT", 64}};
  const std::vector<int> threadCounts = {1, 2, 4, 8};
  const int reps = 3;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  bench::header("cyperf — pipeline stage wall times (s) by thread count",
                "the parallel merge of Fig. 18, SC'14 CYPRESS paper");
  bench::row({"program", "procs", "threads", "compile", "run", "build",
              "merge", "write", "total", "peakRSS"});

  std::string json = "{\n";
  json += "  \"bench\": \"cyperf\",\n";
  json += "  \"hardware_concurrency\": " + std::to_string(hw) + ",\n";
  json += "  \"shard_bytes\": " + std::to_string(flate::kShardBytes) + ",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"rss_note\": \"ru_maxrss (KiB) sampled before and after each "
          "stage of rep 0, max recorded; monotone within a process, so only "
          "the first row's marks are unpolluted by earlier rows\",\n";
  json += "  \"entries\": [\n";
  bool first = true;
  bool anyOversubscribed = false;
  for (const auto& [name, procs] : targets) {
    std::vector<Stages> rows;
    for (int threads : threadCounts) {
      // A row asking for more lanes than the host has cores measures
      // scheduler thrash, not scaling — keep it for trend context but
      // flag it so nobody reads a flat line as a regression.
      const bool oversubscribed = static_cast<unsigned>(threads) > hw;
      anyOversubscribed = anyOversubscribed || oversubscribed;
      // Size the worker pool like a real `--threads N` invocation would.
      ThreadPool::configureShared(static_cast<unsigned>(threads));
      const Stages t = bestOf(name, procs, threads, reps);
      rows.push_back(t);
      bench::row({name, std::to_string(procs),
                  std::to_string(threads) + (oversubscribed ? "*" : ""),
                  bench::secs(t.compile), bench::secs(t.run),
                  bench::secs(t.build), bench::secs(t.merge),
                  bench::secs(t.write), bench::secs(t.total()),
                  std::to_string(t.rssKb[4] >> 10) + "M"});
      std::fflush(stdout);
      char buf[896];
      std::snprintf(
          buf, sizeof buf,
          "%s    {\"workload\": \"%s\", \"procs\": %d, \"threads\": %d, "
          "\"oversubscribed\": %s, "
          "\"stages_s\": {\"compile\": %.6f, \"run\": %.6f, \"build\": %.6f, "
          "\"merge\": %.6f, \"write\": %.6f}, "
          "\"total_s\": %.6f, "
          "\"rss_peak_kb\": {\"compile\": %llu, \"run\": %llu, "
          "\"build\": %llu, \"merge\": %llu, \"write\": %llu}}",
          first ? "" : ",\n", name.c_str(), procs, threads,
          oversubscribed ? "true" : "false", t.compile, t.run, t.build,
          t.merge, t.write, t.total(),
          static_cast<unsigned long long>(t.rssKb[0]),
          static_cast<unsigned long long>(t.rssKb[1]),
          static_cast<unsigned long long>(t.rssKb[2]),
          static_cast<unsigned long long>(t.rssKb[3]),
          static_cast<unsigned long long>(t.rssKb[4]));
      json += buf;
      first = false;
    }
    // Speedup is only meaningful against the largest thread count the
    // hardware can actually grant.
    size_t lastFit = 0;
    for (size_t i = 0; i < threadCounts.size(); ++i)
      if (static_cast<unsigned>(threadCounts[i]) <= hw) lastFit = i;
    char buf[160];
    if (lastFit == 0) {
      std::snprintf(buf, sizeof buf,
                    "  %s/%d: 1 hardware thread — no scaling measurable "
                    "(rows marked * are oversubscribed)\n",
                    name.c_str(), procs);
    } else {
      std::snprintf(buf, sizeof buf,
                    "  %s/%d: %d-thread speedup %.2fx (run stage %.2fx)\n",
                    name.c_str(), procs, threadCounts[lastFit],
                    rows.front().total() / rows[lastFit].total(),
                    rows.front().run / rows[lastFit].run);
    }
    std::fputs(buf, stdout);
  }
  ThreadPool::configureShared(hw);  // restore the default-sized pool
  json += "\n  ],\n";

  // -- streamed vs materialized: the same serialize+compress work on the
  // biggest payload (the raw CYTR stream), head-to-head. Streamed fuses
  // the serialization walk into the compressor through a sink; the
  // materialized path builds the full byte vector first, as the
  // pipeline did before the streaming dataflow landed. Outputs must be
  // byte-identical; only footprint and overlap differ. (RSS marks here
  // are polluted by the stage rows above — the regressable memory
  // numbers are the first row's rss_peak_kb.)
  bench::header("cyperf — streamed vs materialized serialize+compress",
                "identical output bytes; streamed never holds the stream");
  bench::row({"threads", "payload", "streamed", "materialized", "ratio"});
  driver::Options svmOpts;
  svmOpts.procs = 64;
  svmOpts.withScala = false;
  svmOpts.withScala2 = false;
  const driver::RunOutput svmRun = driver::runWorkload("CG", svmOpts);
  const auto svmPayload = svmRun.raw.serialize();
  bool svmIdentical = true;
  {
    VectorSink sink;
    flate::StreamingCompressor sc(sink);
    ByteWriter w(sc);
    svmRun.raw.serializeTo(w);
    w.flush();
    sc.finish();
    svmIdentical = sink.take() == flate::compress(svmPayload);
  }
  json += "  \"streaming_vs_materialized\": {\"workload\": \"CG\", "
          "\"procs\": 64, \"payload_bytes\": " +
          std::to_string(svmPayload.size()) +
          ", \"identical_output\": " + (svmIdentical ? "true" : "false") +
          ", \"rows\": [";
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool::configureShared(static_cast<unsigned>(threads));
    double streamedS = 0, matS = 0;
    for (int i = 0; i < reps; ++i) {
      Stopwatch sw;
      NullSink null;
      flate::StreamingCompressor sc(null, flate::Level::Default, threads);
      ByteWriter w(sc);
      svmRun.raw.serializeTo(w);
      w.flush();
      sc.finish();
      const double st = sw.seconds();
      sw.restart();
      const auto bytes = svmRun.raw.serialize();
      const auto gz = flate::compress(bytes, flate::Level::Default, threads);
      const double mt = sw.seconds();
      (void)gz;
      if (i == 0 || st < streamedS) streamedS = st;
      if (i == 0 || mt < matS) matS = mt;
    }
    bench::row({std::to_string(threads),
                std::to_string(svmPayload.size() >> 10) + "K",
                bench::secs(streamedS), bench::secs(matS),
                bench::secs(matS / std::max(streamedS, 1e-12))});
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "%s{\"threads\": %d, \"streamed_s\": %.6f, "
                  "\"materialized_s\": %.6f}",
                  threads == 1 ? "" : ", ", threads, streamedS, matS);
    json += buf;
  }
  ThreadPool::configureShared(hw);
  json += "]},\n";

  // -- compressed size vs P: the paper's scaling claim — CYPRESS stays
  // near-flat as ranks grow while the per-rank baselines grow with P.
  bench::header("cyperf — compressed trace size vs process count",
                "CYPRESS vs ScalaTrace and gzip, Fig. 15 trend at scale");
  bench::row({"program", "procs", "events", "raw", "gzip", "scalatrace",
              "cypress", "cypress+gz"});
  json += "  \"size_vs_procs\": [\n";
  bool sweepFirst = true;
  struct QueryPoint {
    std::string workload;
    int procs = 0;
    size_t events = 0;
    double queryS = 0, scanS = 0;
    bool identical = false;
  };
  std::vector<QueryPoint> queryPoints;
  for (const char* wname : {"JACOBI", "EP"}) {
    for (int procs : {64, 512, 4096}) {
      driver::Options o;
      o.procs = procs;
      o.threads = static_cast<int>(hw);
      o.withScala2 = false;
      const driver::RunOutput run = driver::runWorkload(wname, o);
      const driver::SizeReport rep = driver::computeSizes(run, o.threads);
      bench::row({wname, std::to_string(procs),
                  std::to_string(run.raw.totalEvents()),
                  bench::kb(rep.rawBytes), bench::kb(rep.gzipBytes),
                  bench::kb(rep.scalaBytes), bench::kb(rep.cypressBytes),
                  bench::kb(rep.cypressGzipBytes)});
      std::fflush(stdout);
      char buf[320];
      std::snprintf(
          buf, sizeof buf,
          "%s    {\"workload\": \"%s\", \"procs\": %d, \"events\": %zu, "
          "\"raw_bytes\": %zu, \"gzip_bytes\": %zu, \"scala_bytes\": %zu, "
          "\"cypress_bytes\": %zu, \"cypress_gzip_bytes\": %zu}",
          sweepFirst ? "" : ",\n", wname, procs, run.raw.totalEvents(),
          rep.rawBytes, rep.gzipBytes, rep.scalaBytes, rep.cypressBytes,
          rep.cypressGzipBytes);
      json += buf;
      sweepFirst = false;

      // query stage: the comm-matrix query answered on the compressed
      // form vs the decompress-then-scan oracle, both single-threaded —
      // the committed baseline for the speedup-vs-P curve. The reuse of
      // this sweep's runs keeps the bench wall time flat.
      QueryPoint qp;
      qp.workload = wname;
      qp.procs = procs;
      qp.events = run.raw.totalEvents();
      const core::MergedCtt merged = driver::mergeCypress(run);
      qp.identical = true;
      for (int i = 0; i < reps; ++i) {
        Stopwatch qw;
        const auto cells = query::commMatrix(merged, 1);
        const double qs = qw.seconds();
        qw.restart();
        const trace::RawTrace expanded = core::decompressAll(merged, procs);
        const auto oracle = query::commMatrixFromRaw(expanded);
        const double ss = qw.seconds();
        qp.identical = qp.identical && query::renderMatrix(cells) ==
                                           query::renderMatrix(oracle);
        if (i == 0 || qs < qp.queryS) qp.queryS = qs;
        if (i == 0 || ss < qp.scanS) qp.scanS = ss;
      }
      queryPoints.push_back(std::move(qp));
    }
  }
  json += "\n  ],\n";

  // -- query on compressed vs decompress-then-scan: the compressed-
  // domain engine reads CommRecord repeat counts, so its cost tracks the
  // compressed size while the oracle's tracks the event count — the gap
  // must widen with P.
  bench::header("cyperf — comm-matrix query: compressed vs decompress+scan",
                "single-threaded; identical output required, gap grows with P");
  bench::row({"program", "procs", "events", "query", "decomp+scan", "speedup",
              "identical"});
  json += "  \"query_note\": \"comm-matrix query, best of reps, 1 thread — "
          "the committed baseline; parallel query speedups depend on "
          "hardware_concurrency above\",\n";
  json += "  \"query_vs_decompress\": [\n";
  double headlineSpeedup = 0;
  for (size_t i = 0; i < queryPoints.size(); ++i) {
    const QueryPoint& qp = queryPoints[i];
    const double speedup = qp.scanS / std::max(qp.queryS, 1e-12);
    if (qp.workload == "JACOBI" && qp.procs == 4096) headlineSpeedup = speedup;
    char spd[32];
    std::snprintf(spd, sizeof spd, "%.1fx", speedup);
    bench::row({qp.workload, std::to_string(qp.procs),
                std::to_string(qp.events), bench::secs(qp.queryS),
                bench::secs(qp.scanS), spd, qp.identical ? "yes" : "NO"});
    char buf[320];
    std::snprintf(
        buf, sizeof buf,
        "%s    {\"workload\": \"%s\", \"procs\": %d, \"events\": %zu, "
        "\"query_s\": %.6f, \"decomp_scan_s\": %.6f, \"speedup\": %.2f, "
        "\"identical\": %s}",
        i == 0 ? "" : ",\n", qp.workload.c_str(), qp.procs, qp.events,
        qp.queryS, qp.scanS, speedup, qp.identical ? "true" : "false");
    json += buf;
  }
  std::printf("  query-on-compressed speedup at P=4096 (JACOBI): %.1fx\n",
              headlineSpeedup);
  json += "\n  ]\n}\n";

  std::FILE* f = std::fopen(outPath.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cyperf: cannot write %s\n", outPath.c_str());
    return 1;
  }
  std::fputs(json.c_str(), f);
  std::fclose(f);
  if (anyOversubscribed)
    std::printf("\n* threads > hardware_concurrency (%u): row measures "
                "oversubscription, not scaling\n", hw);
  std::printf("\nwrote %s\n", outPath.c_str());
  return 0;
}
