// net::Session — one accepted (or dialed) connection speaking the NDJSON
// protocol: framing, frame-size limits, per-session read/write timeouts, and
// the explicit session state machine.
//
// States (§ DESIGN.md 11):
//   Connecting -> Handshake -> Streaming -> Draining -> Closed
// A session lands in Handshake as soon as the transport is up.  The first
// request may be {"op":"version"} to pin the protocol version; any other
// first request is an implicit handshake at the current version (this keeps
// PR-5 AF_UNIX clients working unchanged).  Draining means "answer what was
// already received, accept nothing new"; Closed is terminal.
//
// Framing: newline-delimited JSON, one object per line.  read_line()
// enforces `max_line_bytes` *while buffering* — an oversized frame is
// reported as Read::Oversized with the partial data discarded, so a rogue
// client can hold at most max_line_bytes + one chunk of memory, never an
// unbounded buffer.  A frame that stays incomplete past the per-session
// frame timeout is Read::FrameTimeout (slow-loris guard); an idle gap
// *between* frames is Read::Idle and the caller decides (servers use short
// idle slices to notice drains).
#pragma once

#include <cstddef>
#include <string>

#include "net/io.hpp"

namespace mps::net {

enum class SessionState { Connecting, Handshake, Streaming, Draining, Closed };

/// Human-readable state name ("handshake", ...).
const char* session_state_name(SessionState s);

struct SessionLimits {
  /// Max bytes of one request/response line (excluding '\n').
  std::size_t max_line_bytes = 8u << 20;
  /// Budget for finishing a frame whose first byte arrived (0 = none).
  double frame_timeout_s = 0.0;
  /// Budget for one blocked write (0 = none).
  double write_timeout_s = 0.0;
};

class Session {
 public:
  /// Takes ownership of `fd` (closed on destruction/close()); the session
  /// starts in Handshake — the transport connect already happened.
  Session(int fd, const SessionLimits& limits);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  enum class Read {
    Line,          ///< *line holds one complete frame (no '\n')
    Idle,          ///< no frame started before `idle` expired
    FrameTimeout,  ///< a started frame did not complete in frame_timeout_s
    Oversized,     ///< frame exceeded max_line_bytes (buffer discarded)
    Eof,           ///< peer closed cleanly with no buffered frame
    Error,         ///< transport error
  };

  /// Next frame.  `idle` bounds how long to wait for a frame to *start*;
  /// already-buffered complete frames are returned without touching the fd.
  Read read_line(std::string* line, const Deadline& idle);

  /// True when a complete frame is already buffered (read_line() would
  /// return immediately) — drain logic uses this for the final scoop.
  bool has_buffered_line() const;

  /// Write `line` + '\n' under the write timeout.
  IoStatus write_line(std::string_view line);

  SessionState state() const { return state_; }
  /// Advance the state machine; transitions only forward (a Draining
  /// session never goes back to Streaming).
  void advance(SessionState next);

  int fd() const { return fd_; }
  void close();

 private:
  int fd_;
  SessionLimits limits_;
  SessionState state_ = SessionState::Handshake;
  std::string buffer_;
  /// Deadline for the currently-buffering frame; re-armed per frame.
  Deadline frame_deadline_;
  bool frame_in_progress_ = false;
};

}  // namespace mps::net
