// Shared pieces of the cypbench helper: argument access, a span
// recorder, a metered I/O backend and a sampling observer.
//
// Everything here lives in the benchmark, around calls into the
// library's public API; nothing inside the library is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "support/io.hpp"
#include "trace/observer.hpp"

namespace cypbench {

/// `--key value` flags after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string get(const std::string& key, const std::string& def = "") const;
  long long num(const std::string& key, long long def) const;

 private:
  std::map<std::string, std::string> kv_;
};

std::string readFile(const std::string& path);
void writeFile(const std::string& path, const std::string& text);
/// Split a tab-separated line.
std::vector<std::string> splitTabs(const std::string& line);

double nowSeconds();

/// One flat JSON object of numbers, printed with every digit kept.
std::string jsonNumbers(const std::map<std::string, double>& values);

/// Records nested spans (name, start, end, parent).
/// Spans are kept in memory and written out once, at the end.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer& t, const std::string& name) : t_(t) { t_.begin(name); }
    ~Scope() { t_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
  };

  void begin(const std::string& name);
  void end();

  /// Sum of the durations of all spans called `name`.
  double total(const std::string& name) const;
  /// Durations of the spans called `name`, in order.
  std::vector<double> durations(const std::string& name) const;
  /// Sum over spans called `name` of duration minus their direct
  /// children's durations.
  double self(const std::string& name) const;
  /// Sum of top-level span durations.
  double topLevelTotal() const;

  /// Chrome trace-event JSON of every span.
  std::string toChromeJson() const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  double origin_ = nowSeconds();
};

/// IoBackend wrapper that forwards to another backend and charges the
/// time and bytes of every write-side operation (open, write, sync,
/// close, rename). `spillBytes` counts writes to CYSP spill files.
class MeteredIo final : public cypress::io::IoBackend {
 public:
  explicit MeteredIo(cypress::io::IoBackend& base) : base_(base) {}

  std::unique_ptr<cypress::io::IoFile> openWrite(const std::string& path,
                                                 bool append) override;
  std::vector<uint8_t> readAll(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  bool exists(const std::string& path) override;
  void remove(const std::string& path) override;
  void truncate(const std::string& path, uint64_t size) override;
  uint64_t fileSize(const std::string& path) override;
  void createDirectories(const std::string& path) override;

  double writeSeconds() const { return writeSeconds_; }
  uint64_t bytesWritten() const { return bytesWritten_; }
  uint64_t spillBytes() const { return spillBytes_; }

 private:
  friend class MeteredFile;
  void charge(double seconds, uint64_t bytes, bool spill);

  cypress::io::IoBackend& base_;
  std::mutex mu_;  // guards the totals: writes may come from pool lanes
  double writeSeconds_ = 0.0;
  uint64_t bytesWritten_ = 0;
  uint64_t spillBytes_ = 0;
};

/// Median cost of one steady-clock read pair with nothing between the
/// reads, in ns: subtracted from every timed sample.
double clockOverheadNs();

/// Observer wrapper for one rank: forwards every hook to `inner`,
/// counts every call, and times a 1-in-`every` sample of them with the
/// steady clock. Which calls are timed comes from a fixed-seed
/// xorshift sequence, not a fixed stride, so periodic costs (such as a
/// vector doubling at powers of two) are not sampled in lockstep.
/// Hooks of one rank never run concurrently, so a wrapper needs no
/// locking.
class SampledObserver final : public cypress::trace::Observer {
 public:
  SampledObserver(cypress::trace::Observer& inner, uint32_t every,
                  uint32_t seed)
      : inner_(inner), every_(every), state_(seed | 1u) {}

  void onEvent(const cypress::trace::Event& e) override;
  void onStructEnter(int structId, int pathIndex) override;
  void onStructExit(int structId) override;
  void onCallEnter(int callInstrId, const std::string& callee) override;
  void onCallExit(const std::string& callee) override;
  void onFinalize() override { inner_.onFinalize(); }

  struct Tally {
    uint64_t calls = 0;
    uint64_t sampled = 0;
    uint64_t sampledNs = 0;
    void add(const Tally& o) {
      calls += o.calls;
      sampled += o.sampled;
      sampledNs += o.sampledNs;
    }
    /// Calls times the mean sampled cost net of `clockNs` per sample.
    double estimatedSeconds(double clockNs) const;
  };
  const Tally& events() const { return events_; }
  const Tally& structs() const { return structs_; }

 private:
  template <typename Fn>
  void tick(Tally& t, Fn&& fn);

  cypress::trace::Observer& inner_;
  uint32_t every_;
  uint32_t state_;
  Tally events_;
  Tally structs_;
};

// Subcommands (each returns the process exit code).
int cmdTraced(const Args& a);
int cmdCheck(const Args& a);
int cmdLoad(const Args& a);

}  // namespace cypbench
