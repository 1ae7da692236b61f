#include "persist/atomic_file.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>

#include "common/error.hpp"

namespace topil::persist {

namespace {

std::string errno_text() { return std::strerror(errno); }

void fsync_fd_path(const std::string& path, int flags) {
  const int fd = ::open(path.c_str(), flags);
  TOPIL_REQUIRE(fd >= 0,
                "persist: cannot open for fsync: " + path + " (" +
                    errno_text() + ")");
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  TOPIL_REQUIRE(rc == 0, "persist: fsync failed: " + path + " (" +
                             std::strerror(saved) + ")");
}

}  // namespace

AtomicFileWriter::AtomicFileWriter(std::string path)
    : path_(std::move(path)),
      temp_path_(path_ + ".tmp." + std::to_string(::getpid())) {
  out_.open(temp_path_, std::ios::binary | std::ios::trunc);
  TOPIL_REQUIRE(out_.is_open(),
                "persist: cannot create temp file: " + temp_path_);
}

AtomicFileWriter::~AtomicFileWriter() {
  if (!committed_) {
    if (out_.is_open()) out_.close();
    std::remove(temp_path_.c_str());
  }
}

void AtomicFileWriter::commit() {
  TOPIL_REQUIRE(!committed_, "persist: commit called twice: " + path_);
  out_.flush();
  TOPIL_REQUIRE(out_.good(), "persist: write failed: " + temp_path_);
  out_.close();
  TOPIL_REQUIRE(out_.good(), "persist: close failed: " + temp_path_);
  fsync_file(temp_path_);
  TOPIL_REQUIRE(std::rename(temp_path_.c_str(), path_.c_str()) == 0,
                "persist: rename failed: " + temp_path_ + " -> " + path_ +
                    " (" + errno_text() + ")");
  committed_ = true;
  fsync_parent_dir(path_);
}

void atomic_write(const std::string& path,
                  const std::function<void(std::ostream&)>& fill) {
  AtomicFileWriter writer(path);
  fill(writer.stream());
  writer.commit();
}

void atomic_write(const std::string& path, std::string_view bytes) {
  atomic_write(path, [&](std::ostream& out) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
}

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  TOPIL_REQUIRE(in.is_open(), "cannot open " + what + ": " + path);
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  TOPIL_REQUIRE(!in.bad(), "cannot read " + what + ": " + path);
  return bytes;
}

void fsync_file(const std::string& path) {
  fsync_fd_path(path, O_WRONLY);
}

void fsync_parent_dir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  fsync_fd_path(dir, O_RDONLY);
}

}  // namespace topil::persist
