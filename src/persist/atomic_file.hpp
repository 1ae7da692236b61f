#pragma once

#include <fstream>
#include <functional>
#include <string>
#include <string_view>

#include "persist/state_codec.hpp"

namespace topil::persist {

/// Durable, all-or-nothing file replacement: data is written to a
/// temporary file in the same directory, flushed, fsync'd, and renamed
/// over the destination, then the parent directory is fsync'd so the
/// rename itself survives a crash. Readers never observe a half-written
/// file at the final path.
class AtomicFileWriter {
 public:
  /// Opens `<path>.tmp.<pid>` for binary writing. Throws InvalidArgument
  /// if the temp file cannot be created.
  explicit AtomicFileWriter(std::string path);
  /// Discards the temp file if `commit()` was never called.
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  std::ostream& stream() { return out_; }

  /// Flush + fsync + rename + fsync(parent dir). Throws InvalidArgument
  /// if any step fails (the destination is left untouched on failure).
  void commit();

  const std::string& path() const { return path_; }
  const std::string& temp_path() const { return temp_path_; }

 private:
  std::string path_;
  std::string temp_path_;
  std::ofstream out_;
  bool committed_ = false;
};

/// Writes `fill(stream)` to `path` atomically (see AtomicFileWriter).
void atomic_write(const std::string& path,
                  const std::function<void(std::ostream&)>& fill);
/// Writes `bytes` to `path` atomically.
void atomic_write(const std::string& path, std::string_view bytes);

/// The whole of `path`; throws InvalidArgument, naming `what` and the
/// path, when it cannot be read.
std::string read_file(const std::string& path, const std::string& what);

/// Parses the whole of `path` with `parse(StateReader&)`, which must use
/// every byte. Every error names `what` and the path.
template <typename Parse>
void parse_file(const std::string& path, const std::string& what,
                Parse&& parse) {
  const std::string bytes = read_file(path, what);
  try {
    StateReader in(bytes);
    parse(in);
    in.require_done();
  } catch (const InvalidArgument& e) {
    throw InvalidArgument(what + " " + path + ": " + e.what());
  }
}

/// fsync(2) an existing file by path. Throws InvalidArgument on failure.
void fsync_file(const std::string& path);

/// fsync(2) the directory containing `path` so a just-renamed entry is
/// durable. Throws InvalidArgument on failure.
void fsync_parent_dir(const std::string& path);

}  // namespace topil::persist
