// cypbench — the benchmark's in-process helper (see README.md).
//
//   cypbench info
//       Print the build type and compiler as one JSON object.
//   cypbench traced --steps FILE --spans OUT.json [--threads T]
//       The traced run: execute the CLI command sequence listed in FILE
//       by calling each layer's public functions in the order cyptrace
//       does, with spans around them; print per-layer metrics as JSON.
//   cypbench check --program P --procs N [--threads T] [--rank-dir D]
//                  [--cli-trace F] [--work-dir D]
//       The check pass: the paper invariants on one traced program.
//   cypbench load --socket S --jobs FILE --clients C --seconds T
//                 --out F [--max-jobs N] [--trace 0|1 --ledger F]
//       Closed-loop client load against a running cyptraced.
//   cypbench calib
//       For each line read on stdin, time the fixed memory kernel once
//       and print its wall time in seconds on one line.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <unordered_map>

#include "bench.hpp"
#include "support/error.hpp"

namespace cypbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string flag = argv[i];
    CYP_CHECK(flag.rfind("--", 0) == 0 && i + 1 < argc,
              "expected --key value, got " << flag);
    kv_[flag.substr(2)] = argv[++i];
  }
}

std::string Args::get(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

long long Args::num(const std::string& key, long long def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : std::stoll(it->second);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CYP_CHECK(in.good(), "cannot open " << path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void writeFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  CYP_CHECK(out.good(), "cannot write " << path);
  out << text;
}

std::vector<std::string> splitTabs(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == '\t') {
      out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  out.push_back(cur);
  return out;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string jsonNumbers(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [k, v] : values) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (out.size() > 1) out += ", ";
    out += "\"" + k + "\": " + buf;
  }
  return out + "}";
}

// ---- Tracer ----------------------------------------------------------

void Tracer::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start = nowSeconds();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
}

void Tracer::end() {
  spans_[static_cast<size_t>(open_.back())].end = nowSeconds();
  open_.pop_back();
}

double Tracer::total(const std::string& name) const {
  double t = 0.0;
  for (double d : durations(name)) t += d;
  return t;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end - s.start);
  return out;
}

double Tracer::self(const std::string& name) const {
  double t = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    t += spans_[i].end - spans_[i].start;
    for (const Span& c : spans_)
      if (c.parent == static_cast<int>(i)) t -= c.end - c.start;
  }
  return t;
}

double Tracer::topLevelTotal() const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.parent < 0) t += s.end - s.start;
  return t;
}

std::string Tracer::toChromeJson() const {
  std::string out = "{\"traceEvents\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}",
                  i ? "," : "", s.name.c_str(), (s.start - origin_) * 1e6,
                  (s.end - s.start) * 1e6, i, s.parent);
    out += buf;
  }
  return out + "\n]}\n";
}

// ---- MeteredIo -------------------------------------------------------

namespace {

bool isSpill(const std::string& path) {
  return path.find(".cysp") != std::string::npos;
}

}  // namespace

class MeteredFile final : public cypress::io::IoFile {
 public:
  MeteredFile(MeteredIo& io, std::unique_ptr<cypress::io::IoFile> inner)
      : io_(io), inner_(std::move(inner)), spill_(isSpill(inner_->path())) {}

  void write(std::span<const uint8_t> bytes) override {
    const double t0 = nowSeconds();
    inner_->write(bytes);
    io_.charge(nowSeconds() - t0, bytes.size(), spill_);
  }
  void sync() override {
    const double t0 = nowSeconds();
    inner_->sync();
    io_.charge(nowSeconds() - t0, 0, false);
  }
  void close() override {
    const double t0 = nowSeconds();
    inner_->close();
    io_.charge(nowSeconds() - t0, 0, false);
  }
  const std::string& path() const override { return inner_->path(); }

 private:
  MeteredIo& io_;
  std::unique_ptr<cypress::io::IoFile> inner_;
  bool spill_;
};

void MeteredIo::charge(double seconds, uint64_t bytes, bool spill) {
  std::lock_guard<std::mutex> lock(mu_);
  writeSeconds_ += seconds;
  bytesWritten_ += bytes;
  if (spill) spillBytes_ += bytes;
}

std::unique_ptr<cypress::io::IoFile> MeteredIo::openWrite(
    const std::string& path, bool append) {
  const double t0 = nowSeconds();
  auto f = std::make_unique<MeteredFile>(*this, base_.openWrite(path, append));
  charge(nowSeconds() - t0, 0, false);
  return f;
}

std::vector<uint8_t> MeteredIo::readAll(const std::string& path) {
  return base_.readAll(path);
}

void MeteredIo::rename(const std::string& from, const std::string& to) {
  const double t0 = nowSeconds();
  base_.rename(from, to);
  charge(nowSeconds() - t0, 0, false);
}

bool MeteredIo::exists(const std::string& path) { return base_.exists(path); }
void MeteredIo::remove(const std::string& path) { base_.remove(path); }
void MeteredIo::truncate(const std::string& path, uint64_t size) {
  base_.truncate(path, size);
}
uint64_t MeteredIo::fileSize(const std::string& path) {
  return base_.fileSize(path);
}
void MeteredIo::createDirectories(const std::string& path) {
  base_.createDirectories(path);
}

// ---- SampledObserver -------------------------------------------------

double clockOverheadNs() {
  std::vector<double> batches;
  for (int b = 0; b < 9; ++b) {
    constexpr int kPairs = 2000;
    uint64_t ns = 0;
    for (int i = 0; i < kPairs; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto t1 = std::chrono::steady_clock::now();
      ns += static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    }
    batches.push_back(static_cast<double>(ns) / kPairs);
  }
  std::sort(batches.begin(), batches.end());
  return batches[batches.size() / 2];
}

double SampledObserver::Tally::estimatedSeconds(double clockNs) const {
  if (sampled == 0) return 0.0;
  const double mean = static_cast<double>(sampledNs) / static_cast<double>(sampled);
  return std::max(0.0, mean - clockNs) * static_cast<double>(calls) * 1e-9;
}

template <typename Fn>
void SampledObserver::tick(Tally& t, Fn&& fn) {
  ++t.calls;
  state_ ^= state_ << 13;
  state_ ^= state_ >> 17;
  state_ ^= state_ << 5;
  if (state_ % every_ != 0) {
    fn();
    return;
  }
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  t.sampledNs += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  ++t.sampled;
}

void SampledObserver::onEvent(const cypress::trace::Event& e) {
  tick(events_, [&] { inner_.onEvent(e); });
}
void SampledObserver::onStructEnter(int structId, int pathIndex) {
  tick(structs_, [&] { inner_.onStructEnter(structId, pathIndex); });
}
void SampledObserver::onStructExit(int structId) {
  tick(structs_, [&] { inner_.onStructExit(structId); });
}
void SampledObserver::onCallEnter(int callInstrId, const std::string& callee) {
  tick(structs_, [&] { inner_.onCallEnter(callInstrId, callee); });
}
void SampledObserver::onCallExit(const std::string& callee) {
  tick(structs_, [&] { inner_.onCallExit(callee); });
}

}  // namespace cypbench

namespace {

int cmdInfo() {
#if defined(__clang__)
  const char* family = "clang";
#elif defined(__GNUC__)
  const char* family = "gcc";
#else
  const char* family = "unknown";
#endif
  std::printf("{\"build_type\": \"%s\", \"compiler\": \"%s %s\"}\n",
              CYPBENCH_BUILD_TYPE, family, __VERSION__);
  return 0;
}

/// The host-speed probe behind run.py's normalisation. It does the two
/// kinds of memory work that dominate the workloads, with fixed sizes and
/// no code of the repository: appending to a fresh 64 MiB vector (page
/// faults and streaming writes, like the raw recorder) and inserting
/// into a hash table larger than the L2 cache (dependent random reads,
/// like the CTT hooks). Other tenants of a shared host slow both by the
/// same factor as the workloads, while plain arithmetic stays flat.
double memoryKernelSeconds() {
  const double t0 = cypbench::nowSeconds();
  uint64_t sink = 0;
  {
    std::vector<uint64_t> v;
    for (uint64_t i = 0; i < (8u << 20); ++i) v.push_back(i * 2654435761u);
    sink += v[v.size() / 2];
  }
  {
    std::unordered_map<uint64_t, uint64_t> m;
    for (uint64_t i = 0; i < 300000; ++i) m[(i * 2654435761u) % 1000003] += i;
    sink += m.size();
  }
  const double t = cypbench::nowSeconds() - t0;
  return sink == 0 ? -t : t;  // keeps `sink` (and the work) observable
}

int cmdCalib() {
  memoryKernelSeconds();  // the first run is slower: cold allocator
  for (std::string line; std::getline(std::cin, line);) {
    std::printf("%.9f\n", memoryKernelSeconds());
    std::fflush(stdout);
  }
  return 0;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: cypbench info | traced ... | check ... | load ... | calib\n"
               "(see the comment at the top of cypbench.cpp)\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "info") return cmdInfo();
    if (cmd == "calib") return cmdCalib();
    const cypbench::Args a(argc, argv, 2);
    if (cmd == "traced") return cypbench::cmdTraced(a);
    if (cmd == "check") return cypbench::cmdCheck(a);
    if (cmd == "load") return cypbench::cmdLoad(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cypbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  usage();
}
