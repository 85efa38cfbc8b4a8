// net::io — EINTR-safe, deadline-aware socket I/O primitives shared by the
// server sessions and the client.
//
// All fds stay in blocking mode; timeouts come from poll()ing before every
// read/write with the time remaining until the deadline, so a peer that
// stalls mid-frame (slow loris) or stops draining its receive buffer can
// never wedge a thread forever.  Short writes and EINTR are retried until
// the deadline; results are status codes, not exceptions — the callers
// decide which statuses are errors in their protocol state.
#pragma once

#include <chrono>
#include <string>
#include <string_view>

namespace mps::net {

/// Absolute steady-clock deadline; default-constructed = never expires.
class Deadline {
 public:
  Deadline() = default;
  /// A deadline `seconds` from now; <=0 means "never".
  static Deadline after(double seconds);

  bool never() const { return !armed_; }
  bool expired() const;
  /// Milliseconds until expiry for poll(): -1 when never, >=0 otherwise
  /// (clamped to 0 when already expired, never negative).
  int poll_ms() const;
  /// The earlier of this deadline and `other`.
  Deadline min(const Deadline& other) const;

 private:
  bool armed_ = false;
  std::chrono::steady_clock::time_point at_{};
};

enum class IoStatus {
  Ok,       ///< progress was made
  Eof,      ///< orderly close by the peer (reads only)
  Timeout,  ///< the deadline expired before progress
  Error,    ///< errno-level failure (reset, bad fd, ...)
};

/// Write all of `data`, retrying EINTR/short writes, polling for writability
/// until `deadline`.  SIGPIPE is suppressed (MSG_NOSIGNAL).
IoStatus write_all(int fd, std::string_view data, const Deadline& deadline);

/// Read one chunk (<=4 KiB) and append it to `*buf`.  Blocks (via poll)
/// until data, EOF, error, or the deadline.
IoStatus read_chunk(int fd, std::string* buf, const Deadline& deadline);

}  // namespace mps::net
