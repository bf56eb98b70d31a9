#include "support/io.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>

namespace cypress::io {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void throwIo(const std::string& op, const std::string& path,
                          int errnum, const std::string& extra = "") {
  std::string what = "io: " + op + " " + path + " failed";
  if (errnum != 0) {
    what += ": ";
    what += std::strerror(errnum);
    what += " (errno " + std::to_string(errnum) + ")";
  }
  if (!extra.empty()) what += ": " + extra;
  throw IoError(op, path, errnum, what);
}

std::string parentDir(const std::string& path) {
  const fs::path p = fs::path(path).parent_path();
  return p.empty() ? std::string(".") : p.string();
}

/// fsync the directory containing `path`, making a just-completed
/// rename/create in it durable.
void syncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throwIo("opendir", dir, errno);
  if (::fsync(fd) != 0) {
    const int e = errno;
    ::close(fd);
    // Some filesystems refuse directory fsync (EINVAL); that is a
    // property of the mount, not a torn write.
    if (e != EINVAL) throwIo("fsyncdir", dir, e);
    return;
  }
  ::close(fd);
}

class RealIoFile final : public IoFile {
 public:
  RealIoFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  ~RealIoFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  void write(std::span<const uint8_t> bytes) override {
    CYP_CHECK(fd_ >= 0, "io: write to closed file " << path_);
    size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd_, bytes.data() + off, bytes.size() - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        throwIo("write", path_, errno);
      }
      off += static_cast<size_t>(n);
    }
  }

  void sync() override {
    CYP_CHECK(fd_ >= 0, "io: fsync on closed file " << path_);
    if (::fsync(fd_) != 0) throwIo("fsync", path_, errno);
  }

  void close() override {
    if (fd_ < 0) return;
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) throwIo("close", path_, errno);
  }

  const std::string& path() const override { return path_; }

 private:
  int fd_;
  std::string path_;
};

}  // namespace

bool isDiskFull(int errnum) {
  return errnum == ENOSPC || errnum == EDQUOT || errnum == EFBIG;
}

std::unique_ptr<IoFile> RealIoBackend::openWrite(const std::string& path,
                                                 bool append) {
  const int flags = O_WRONLY | O_CREAT | (append ? O_APPEND : O_TRUNC);
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) throwIo("open", path, errno);
  return std::make_unique<RealIoFile>(fd, path);
}

std::vector<uint8_t> RealIoBackend::readAll(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throwIo("open", path, errno);
  std::vector<uint8_t> out;
  uint8_t buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int e = errno;
      ::close(fd);
      throwIo("read", path, e);
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return out;
}

void RealIoBackend::rename(const std::string& from, const std::string& to) {
  if (::rename(from.c_str(), to.c_str()) != 0)
    throwIo("rename", from + " -> " + to, errno);
  syncDir(parentDir(to));
}

bool RealIoBackend::exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void RealIoBackend::remove(const std::string& path) {
  if (::unlink(path.c_str()) != 0 && errno != ENOENT)
    throwIo("unlink", path, errno);
}

void RealIoBackend::truncate(const std::string& path, uint64_t size) {
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0)
    throwIo("truncate", path, errno);
}

uint64_t RealIoBackend::fileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) throwIo("stat", path, errno);
  return static_cast<uint64_t>(st.st_size);
}

void RealIoBackend::createDirectories(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) throwIo("mkdir", path, ec.value());
}

IoBackend& realIo() {
  static RealIoBackend backend;
  return backend;
}

IoFaultSpec parseIoFaultSpec(const std::string& spec) {
  const auto at = spec.find('@');
  CYP_CHECK(at != std::string::npos && at > 0,
            "io fault spec `" << spec << "`: expected kind@N[:pathSubstr]");
  const std::string kind = spec.substr(0, at);
  std::string rest = spec.substr(at + 1);
  IoFaultSpec f;
  const auto colon = rest.find(':');
  if (colon != std::string::npos) {
    f.pathSubstr = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
  }
  CYP_CHECK(!rest.empty() &&
                rest.find_first_not_of("0123456789") == std::string::npos,
            "io fault spec `" << spec << "`: ordinal must be a number");
  f.at = std::stoull(rest);
  CYP_CHECK(f.at >= 1, "io fault spec `" << spec << "`: ordinal is 1-based");
  if (kind == "enospc") f.kind = IoFaultSpec::Kind::Enospc;
  else if (kind == "eio") f.kind = IoFaultSpec::Kind::Eio;
  else if (kind == "short") f.kind = IoFaultSpec::Kind::ShortWrite;
  else if (kind == "fsync") f.kind = IoFaultSpec::Kind::FsyncFail;
  else if (kind == "rename") f.kind = IoFaultSpec::Kind::TornRename;
  else CYP_FAIL("io fault spec `" << spec << "`: unknown kind `" << kind
                                  << "` (enospc|eio|short|fsync|rename)");
  return f;
}

/// Wraps a real file; write/sync failures come from the owning
/// backend's plan, everything that succeeds passes through.
class FaultyIoFile final : public IoFile {
 public:
  FaultyIoFile(FaultyIoBackend& owner, std::unique_ptr<IoFile> base)
      : owner_(owner), base_(std::move(base)) {}

  void write(std::span<const uint8_t> bytes) override;
  void sync() override;
  void close() override { base_->close(); }
  const std::string& path() const override { return base_->path(); }

 private:
  FaultyIoBackend& owner_;
  std::unique_ptr<IoFile> base_;
};

FaultyIoBackend::FaultyIoBackend(IoBackend& base, std::vector<IoFaultSpec> plan)
    : base_(base), plan_(std::move(plan)), seen_(plan_.size(), 0) {}

const IoFaultSpec* FaultyIoBackend::arm(IoFaultSpec::Kind k1,
                                        IoFaultSpec::Kind k2,
                                        IoFaultSpec::Kind k3,
                                        const std::string& path) {
  for (size_t i = 0; i < plan_.size(); ++i) {
    const IoFaultSpec& f = plan_[i];
    if (f.kind != k1 && f.kind != k2 && f.kind != k3) continue;
    if (!f.pathSubstr.empty() && path.find(f.pathSubstr) == std::string::npos)
      continue;
    if (++seen_[i] == f.at) {
      ++fired_;
      return &f;
    }
  }
  return nullptr;
}

void FaultyIoFile::write(std::span<const uint8_t> bytes) {
  using K = IoFaultSpec::Kind;
  ++owner_.writes_;
  const IoFaultSpec* f =
      owner_.arm(K::Enospc, K::Eio, K::ShortWrite, path());
  if (f == nullptr) {
    base_->write(bytes);
    return;
  }
  switch (f->kind) {
    case K::Enospc:
      // The realistic ENOSPC: some bytes land, then the disk is full.
      base_->write(bytes.subspan(0, bytes.size() / 2));
      throw IoError("write", path(), ENOSPC,
                    "io: write " + path() + " failed: injected ENOSPC after " +
                        std::to_string(bytes.size() / 2) + " of " +
                        std::to_string(bytes.size()) + " bytes");
    case K::Eio:
      throw IoError("write", path(), EIO,
                    "io: write " + path() + " failed: injected EIO");
    case K::ShortWrite:
      base_->write(bytes.subspan(0, bytes.size() / 2));
      throw IoError("write", path(), 0,
                    "io: write " + path() + " failed: injected short write (" +
                        std::to_string(bytes.size() / 2) + " of " +
                        std::to_string(bytes.size()) + " bytes)");
    default:
      break;
  }
  base_->write(bytes);
}

void FaultyIoFile::sync() {
  using K = IoFaultSpec::Kind;
  ++owner_.syncs_;
  if (owner_.arm(K::FsyncFail, K::FsyncFail, K::FsyncFail, path()))
    throw IoError("fsync", path(), EIO,
                  "io: fsync " + path() + " failed: injected EIO");
  base_->sync();
}

std::unique_ptr<IoFile> FaultyIoBackend::openWrite(const std::string& path,
                                                   bool append) {
  return std::make_unique<FaultyIoFile>(*this, base_.openWrite(path, append));
}

std::vector<uint8_t> FaultyIoBackend::readAll(const std::string& path) {
  return base_.readAll(path);
}

void FaultyIoBackend::rename(const std::string& from, const std::string& to) {
  using K = IoFaultSpec::Kind;
  ++renames_;
  if (arm(K::TornRename, K::TornRename, K::TornRename, to)) {
    // A lying-filesystem rename: the caller sees success, but the file
    // lost its tail on the way (the crash window a missing
    // fsync-before-rename opens). Only CRC/seal validation can tell.
    const uint64_t size = base_.fileSize(from);
    base_.truncate(from, size / 2);
    base_.rename(from, to);
    return;
  }
  base_.rename(from, to);
}

bool FaultyIoBackend::exists(const std::string& path) {
  return base_.exists(path);
}

void FaultyIoBackend::remove(const std::string& path) { base_.remove(path); }

void FaultyIoBackend::truncate(const std::string& path, uint64_t size) {
  base_.truncate(path, size);
}

uint64_t FaultyIoBackend::fileSize(const std::string& path) {
  return base_.fileSize(path);
}

void FaultyIoBackend::createDirectories(const std::string& path) {
  base_.createDirectories(path);
}

AtomicFileWriter::AtomicFileWriter(IoBackend& io, const std::string& path)
    : io_(io), path_(path), tmp_(path + ".tmp") {
  file_ = io_.openWrite(tmp_);
}

AtomicFileWriter::~AtomicFileWriter() {
  if (committed_) return;
  // Abort path: best-effort cleanup; the write already failed, and a
  // destructor must not throw over the original error.
  try {
    if (file_) file_->close();
  } catch (const Error&) {
  }
  try {
    io_.remove(tmp_);
  } catch (const Error&) {
  }
}

void AtomicFileWriter::write(std::span<const uint8_t> bytes) {
  CYP_CHECK(!committed_, "io: write after commit to " << path_);
  file_->write(bytes);
  bytesWritten_ += bytes.size();
}

void AtomicFileWriter::commit() {
  CYP_CHECK(!committed_, "io: double commit to " << path_);
  file_->sync();
  file_->close();
  io_.rename(tmp_, path_);
  committed_ = true;
}

void writeFileAtomic(IoBackend& io, const std::string& path,
                     std::span<const uint8_t> bytes) {
  AtomicFileWriter w(io, path);
  w.write(bytes);
  w.commit();
}

uint64_t peakRssBytes() {
  struct rusage ru;
  if (::getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  // Linux reports ru_maxrss in KiB.
  return static_cast<uint64_t>(ru.ru_maxrss) * 1024;
}

}  // namespace cypress::io
