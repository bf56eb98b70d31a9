// Fault-injectable I/O layer: every durable write in cypress goes
// through an IoBackend.
//
// The library's crash-consistency story (CYJ1 journals, the CYL1
// ledger, the CYM1 merge manifest, atomic artifact and merge-spill
// write-out) rests on three primitives — append a framed segment,
// fsync, rename into place — and on the claim that any of them can
// fail or tear at any moment. This header makes that claim testable:
// production code writes through RealIoBackend (POSIX write/fsync/
// rename with directory fsyncs), and tests swap in a FaultyIoBackend
// that injects ENOSPC, EIO, short writes, fsync failures, and torn
// renames at deterministic operation
// ordinals from a seeded plan — the same `kind@N` grammar the PR 2
// fault injector uses for MPI ranks (`kill:R@N`), applied to disk ops.
//
// Failures surface as IoError (a cypress::Error carrying the errno and
// the failing op/path), so callers can distinguish a disk-full
// condition — permanent, not worth a retry — from a corrupt input.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "support/bytebuf.hpp"
#include "support/error.hpp"

namespace cypress::io {

/// An I/O failure: op + path + errno. `errnum` is 0 when the failure
/// has no meaningful errno (e.g. an injected short write).
class IoError : public Error {
 public:
  IoError(const std::string& op, const std::string& path, int errnum,
          const std::string& what)
      : Error(what), op_(op), path_(path), errnum_(errnum) {}

  const std::string& op() const { return op_; }
  const std::string& path() const { return path_; }
  int errnum() const { return errnum_; }

 private:
  std::string op_;
  std::string path_;
  int errnum_;
};

/// True for the errnos that mean "the disk is full" — ENOSPC, EDQUOT,
/// and EFBIG (what an RLIMIT_FSIZE-capped process sees). These are
/// permanent for the failing attempt: retrying without freeing space
/// fails identically.
bool isDiskFull(int errnum);

/// One open file. write() either writes every byte or throws IoError —
/// short writes are retried at the POSIX layer and injected explicitly
/// by the faulty backend, never silently swallowed.
class IoFile {
 public:
  virtual ~IoFile() = default;
  virtual void write(std::span<const uint8_t> bytes) = 0;
  virtual void sync() = 0;
  /// Idempotent; called by the destructor (which swallows errors —
  /// call close() explicitly when a failure must be observed).
  virtual void close() = 0;
  virtual const std::string& path() const = 0;
};

/// VFS-style backend: the five operations cypress durability is built
/// on, plus the small read/query set the same call sites need.
class IoBackend {
 public:
  virtual ~IoBackend() = default;

  /// Open for writing: truncates unless `append`.
  virtual std::unique_ptr<IoFile> openWrite(const std::string& path,
                                            bool append = false) = 0;
  virtual std::vector<uint8_t> readAll(const std::string& path) = 0;
  /// rename(2) + fsync of the destination's parent directory, so the
  /// rename itself is durable — without the directory fsync a crash can
  /// roll the rename back even though the data blocks survived.
  virtual void rename(const std::string& from, const std::string& to) = 0;
  virtual bool exists(const std::string& path) = 0;
  /// Missing file is not an error.
  virtual void remove(const std::string& path) = 0;
  virtual void truncate(const std::string& path, uint64_t size) = 0;
  virtual uint64_t fileSize(const std::string& path) = 0;
  virtual void createDirectories(const std::string& path) = 0;
};

/// POSIX implementation (open/write/fsync/rename).
class RealIoBackend final : public IoBackend {
 public:
  std::unique_ptr<IoFile> openWrite(const std::string& path,
                                    bool append = false) override;
  std::vector<uint8_t> readAll(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  bool exists(const std::string& path) override;
  void remove(const std::string& path) override;
  void truncate(const std::string& path, uint64_t size) override;
  uint64_t fileSize(const std::string& path) override;
  void createDirectories(const std::string& path) override;
};

/// Process-wide RealIoBackend (the default when call sites take an
/// IoBackend* and get nullptr).
IoBackend& realIo();

/// One injected fault: fail the `at`-th matching operation (1-based,
/// counted per backend instance over ops whose path contains
/// `pathSubstr` when set). Spec grammar, mirroring the PR 2 fault
/// plans: `kind@N[:pathSubstr]` with kind one of
///   enospc  Nth write fails with ENOSPC after half the bytes land
///   eio     Nth write fails with EIO, nothing lands
///   short   Nth write lands only half its bytes, then throws
///   fsync   Nth sync fails with EIO (data may or may not be durable)
///   rename  Nth rename completes but the source had silently lost its
///           tail (simulates a missing fsync-before-rename: the
///           destination exists, torn — size/CRC checks must catch it)
struct IoFaultSpec {
  enum class Kind { Enospc, Eio, ShortWrite, FsyncFail, TornRename };
  Kind kind = Kind::Enospc;
  uint64_t at = 1;
  std::string pathSubstr;
};

IoFaultSpec parseIoFaultSpec(const std::string& spec);

/// Deterministic fault injection over a base backend. Operation
/// counters are per-instance, so the same plan over the same call
/// sequence always fails at the same byte.
class FaultyIoBackend final : public IoBackend {
 public:
  explicit FaultyIoBackend(IoBackend& base,
                           std::vector<IoFaultSpec> plan = {});

  std::unique_ptr<IoFile> openWrite(const std::string& path,
                                    bool append = false) override;
  std::vector<uint8_t> readAll(const std::string& path) override;
  void rename(const std::string& from, const std::string& to) override;
  bool exists(const std::string& path) override;
  void remove(const std::string& path) override;
  void truncate(const std::string& path, uint64_t size) override;
  uint64_t fileSize(const std::string& path) override;
  void createDirectories(const std::string& path) override;

  uint64_t writesSeen() const { return writes_; }
  uint64_t syncsSeen() const { return syncs_; }
  uint64_t renamesSeen() const { return renames_; }
  uint64_t faultsFired() const { return fired_; }

 private:
  friend class FaultyIoFile;
  /// Returns the armed fault for this (kind-class, path) op, if any.
  /// Each spec keeps its own counter of matching operations, so
  /// `enospc@2:b1.cysp` fires on the second write that touches the
  /// b1 spill regardless of how much unrelated I/O came before.
  const IoFaultSpec* arm(IoFaultSpec::Kind k1, IoFaultSpec::Kind k2,
                         IoFaultSpec::Kind k3, const std::string& path);

  IoBackend& base_;
  std::vector<IoFaultSpec> plan_;
  std::vector<uint64_t> seen_;  // parallel to plan_: matching ops so far
  uint64_t writes_ = 0;
  uint64_t syncs_ = 0;
  uint64_t renames_ = 0;
  uint64_t fired_ = 0;
};

/// Enforces the write-tmp → fsync → rename-into-place discipline every
/// atomic artifact write must follow. Writes accumulate in `path.tmp`;
/// commit() fsyncs, closes, and renames (the backend fsyncs the parent
/// directory). Destroying an uncommitted writer removes the tmp file,
/// so an aborted write leaves nothing behind under either name.
///
/// Also a ByteSink, so it terminates streaming chains: a producer
/// serializes through flate::StreamingCompressor (or a bare sink-backed
/// ByteWriter) straight into the tmp file, and an exception anywhere
/// upstream still leaves nothing under the final name.
class AtomicFileWriter final : public ByteSink {
 public:
  AtomicFileWriter(IoBackend& io, const std::string& path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  void write(std::span<const uint8_t> bytes);
  void append(std::span<const uint8_t> bytes) override { write(bytes); }
  void commit();
  bool committed() const { return committed_; }
  uint64_t bytesWritten() const { return bytesWritten_; }

 private:
  IoBackend& io_;
  std::string path_;
  std::string tmp_;
  std::unique_ptr<IoFile> file_;
  uint64_t bytesWritten_ = 0;
  bool committed_ = false;
};

/// One-shot atomic write of a full buffer.
void writeFileAtomic(IoBackend& io, const std::string& path,
                     std::span<const uint8_t> bytes);

/// Peak resident set size of this process so far, in bytes (getrusage
/// ru_maxrss). Monotone high-water mark: meaningful for a stage only
/// when sampled before anything larger ran.
uint64_t peakRssBytes();

}  // namespace cypress::io
