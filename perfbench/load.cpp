// Closed-loop client load against a running cyptraced: `clients`
// connections, each submitting its next job only after the previous one
// reached a terminal state. Jobs are taken in file order from one shared
// cursor, so the (seeded) order of the jobs file is the submission
// order.
//
// Jobs file: one tab-separated job per line,
//   run    PROGRAM PROCS
//   query  TRACE   SPEC
//
// Without --max-jobs, clients stop taking jobs once --seconds have
// passed; with it, exactly that many jobs run. With --trace 1 each
// client polls the job's status instead of blocking in WAIT, so it sees
// the ACCEPTED -> RUNNING -> terminal transitions (queue wait and run
// time), the static phase of every distinct RUN program is timed
// in-process, and the CYL1 ledger (--ledger) and the jobs' CYJ1
// journals are read back for their segment counts. One JSON line per
// job goes to --out; the last stdout line is a JSON object with the
// server counters.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "bench.hpp"
#include "cst/builder.hpp"
#include "minic/compile.hpp"
#include "service/client.hpp"
#include "service/ledger.hpp"
#include "support/error.hpp"
#include "trace/journal.hpp"
#include "workloads/workloads.hpp"

namespace cypbench {

using namespace cypress;

namespace {

/// Status poll interval of a traced client.
constexpr auto kPoll = std::chrono::microseconds(500);

struct JobRecord {
  size_t index = 0;
  std::string kind;
  bool accepted = false;
  std::string state = "REJECTED";
  double latency = 0.0;  // submit call to terminal state, seconds
  double submitMs = 0.0;
  double queueWaitMs = -1.0;  // trace mode only
  double runMs = -1.0;        // trace mode only
  std::string artifact;
  std::string journal;
  uint64_t bytes = 0;
  std::string detail;
};

std::string escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string toJson(const JobRecord& r) {
  char nums[256];
  std::snprintf(nums, sizeof nums,
                "\"latency_s\": %.9f, \"submit_ms\": %.6f, "
                "\"queue_wait_ms\": %.6f, \"run_ms\": %.6f, \"bytes\": %llu",
                r.latency, r.submitMs, r.queueWaitMs, r.runMs,
                static_cast<unsigned long long>(r.bytes));
  return "{\"i\": " + std::to_string(r.index) + ", \"kind\": \"" + r.kind +
         "\", \"accepted\": " + (r.accepted ? "true" : "false") +
         ", \"state\": \"" + r.state + "\", " + nums + ", \"artifact\": \"" +
         escape(r.artifact) + "\", \"journal\": \"" + escape(r.journal) +
         "\", \"detail\": \"" + escape(r.detail) + "\"}";
}

service::JobSpec toSpec(const std::vector<std::string>& f) {
  CYP_CHECK(f.size() == 3, "job lines have three tab-separated fields");
  service::JobSpec spec;
  if (f[0] == "run") {
    spec.kind = service::JobKind::Run;
    spec.target = f[1];
    spec.procs = static_cast<uint32_t>(std::stoul(f[2]));
  } else {
    CYP_CHECK(f[0] == "query", "unknown job kind " << f[0]);
    spec.kind = service::JobKind::Query;
    spec.target = f[1];
    spec.querySpec = f[2];
  }
  return spec;
}

JobRecord runJob(service::Client& client, const std::vector<std::string>& f,
                 size_t index, bool traced) {
  JobRecord rec;
  rec.index = index;
  rec.kind = f[0];
  const double t0 = nowSeconds();
  const service::Response resp = client.submit(toSpec(f));
  const double tAccepted = nowSeconds();
  rec.submitMs = (tAccepted - t0) * 1e3;
  if (resp.code != service::ResponseCode::Accepted) {
    rec.detail = resp.message;
    rec.latency = tAccepted - t0;
    return rec;
  }
  rec.accepted = true;
  std::optional<service::JobStatus> st;
  if (traced) {
    double tRunning = -1.0;
    for (;;) {
      st = client.status(resp.jobId);
      CYP_CHECK(st.has_value(), "job " << resp.jobId << " vanished");
      if (st->state != service::JobState::Accepted && tRunning < 0)
        tRunning = nowSeconds();
      if (service::isTerminal(st->state)) break;
      std::this_thread::sleep_for(kPoll);
    }
    const double tEnd = nowSeconds();
    rec.queueWaitMs = (tRunning - tAccepted) * 1e3;
    rec.runMs = (tEnd - tRunning) * 1e3;
  } else {
    st = client.wait(resp.jobId, 120'000);
    CYP_CHECK(st.has_value(), "job " << resp.jobId << " vanished");
  }
  rec.latency = nowSeconds() - t0;
  rec.state = service::toString(st->state);
  rec.artifact = st->artifactPath;
  rec.journal = st->journalPath;
  rec.bytes = st->artifactBytes;
  rec.detail = st->detail;
  return rec;
}

}  // namespace

int cmdLoad(const Args& a) {
  std::vector<std::vector<std::string>> jobs;
  {
    std::ifstream in(a.get("jobs"));
    CYP_CHECK(in.good(), "cannot open jobs file " << a.get("jobs"));
    for (std::string line; std::getline(in, line);)
      if (!line.empty()) jobs.push_back(splitTabs(line));
  }
  const std::string socket = a.get("socket");
  const int clients = static_cast<int>(a.num("clients", 3));
  const double seconds = static_cast<double>(a.num("seconds", 10));
  const size_t maxJobs = static_cast<size_t>(a.num("max-jobs", 0));
  const bool traced = a.num("trace", 0) != 0;

  std::map<std::string, double> out;
  if (traced) {
    // The static phase the daemon's ProgramCache saves on a hit.
    std::set<std::pair<std::string, int>> programs;
    for (const auto& f : jobs)
      if (f[0] == "run") programs.insert({f[1], std::stoi(f[2])});
    Tracer tr;
    double vertices = 0;
    for (const auto& [name, procs] : programs) {
      const std::string src = workloads::get(name).source(procs, 1);
      std::unique_ptr<ir::Module> m;
      {
        Tracer::Scope s(tr, "minic.compile");
        m = minic::compileProgram(src);
      }
      Tracer::Scope s(tr, "cst.analyze");
      vertices += cst::analyzeAndInstrument(*m).cst.numNodes();
    }
    out["minic.compile_s"] = tr.total("minic.compile");
    out["cst.analyze_s"] = tr.total("cst.analyze");
    out["cst.vertices"] = vertices;
  }

  std::atomic<size_t> next{0};
  std::vector<std::vector<JobRecord>> perClient(static_cast<size_t>(clients));
  std::vector<std::string> errors(static_cast<size_t>(clients));
  const double start = nowSeconds();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          service::Client client(socket);
          for (;;) {
            if (maxJobs == 0 && nowSeconds() - start >= seconds) break;
            const size_t i = next.fetch_add(1);
            if (i >= jobs.size() || (maxJobs && i >= maxJobs)) break;
            perClient[static_cast<size_t>(c)].push_back(
                runJob(client, jobs[i], i, traced));
          }
        } catch (const std::exception& e) {
          errors[static_cast<size_t>(c)] = e.what();
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  const double elapsed = nowSeconds() - start;
  for (const std::string& e : errors)
    CYP_CHECK(e.empty(), "client failed: " << e);

  std::ofstream rec(a.get("out"));
  CYP_CHECK(rec.good(), "cannot write " << a.get("out"));
  double journalSegments = 0.0, journals = 0.0;
  for (const auto& v : perClient) {
    for (const JobRecord& r : v) {
      rec << toJson(r) << "\n";
      if (traced && !r.journal.empty()) {
        const std::string j = readFile(r.journal);
        journalSegments += static_cast<double>(
            trace::recoverJournal(std::span<const uint8_t>(
                                      reinterpret_cast<const uint8_t*>(j.data()),
                                      j.size()))
                .segmentsRecovered);
        ++journals;
      }
    }
  }
  if (traced) {
    const std::string l = readFile(a.get("ledger"));
    out["ledger_segments"] = static_cast<double>(
        service::recoverLedger(
            std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(l.data()),
                                     l.size()))
            .segmentsRecovered);
    out["journal_segments"] = journals > 0 ? journalSegments / journals : 0.0;
  }

  service::Client client(socket);
  const service::Counters c = client.counters();
  out["elapsed_s"] = elapsed;
  out["cache_hits"] = static_cast<double>(c.cacheHits);
  out["cache_misses"] = static_cast<double>(c.cacheMisses);
  out["rejected_busy"] =
      static_cast<double>(c.rejectedBusy + c.rejectedClientCap);
  out["retries"] = static_cast<double>(c.retries);
  out["done"] = static_cast<double>(c.done);
  out["failed"] = static_cast<double>(c.failed + c.failedDisk + c.cancelled);
  std::printf("%s\n", jsonNumbers(out).c_str());
  return 0;
}

}  // namespace cypbench
