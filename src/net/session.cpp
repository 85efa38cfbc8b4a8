#include "net/session.hpp"

#include <unistd.h>

#include "util/common.hpp"

namespace mps::net {

const char* session_state_name(SessionState s) {
  switch (s) {
    case SessionState::Connecting: return "connecting";
    case SessionState::Handshake: return "handshake";
    case SessionState::Streaming: return "streaming";
    case SessionState::Draining: return "draining";
    case SessionState::Closed: return "closed";
  }
  return "?";
}

Session::Session(int fd, const SessionLimits& limits) : fd_(fd), limits_(limits) {
  MPS_ASSERT(fd >= 0);
}

Session::~Session() { close(); }

void Session::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  state_ = SessionState::Closed;
}

void Session::advance(SessionState next) {
  // Forward-only: the enum order is the machine's order.
  if (static_cast<int>(next) > static_cast<int>(state_)) state_ = next;
}

bool Session::has_buffered_line() const {
  return buffer_.find('\n') != std::string::npos;
}

Session::Read Session::read_line(std::string* line, const Deadline& idle) {
  MPS_ASSERT(line != nullptr);
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    // The cap applies to the frame whether it is complete or still
    // buffering — a huge line that arrived in one chunk is just as rogue.
    const std::size_t frame_bytes = nl == std::string::npos ? buffer_.size() : nl;
    if (frame_bytes > limits_.max_line_bytes) {
      buffer_.clear();
      frame_in_progress_ = false;
      return Read::Oversized;
    }
    if (nl != std::string::npos) {
      line->assign(buffer_, 0, nl);
      buffer_.erase(0, nl + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      frame_in_progress_ = !buffer_.empty();
      if (frame_in_progress_) frame_deadline_ = Deadline::after(limits_.frame_timeout_s);
      return Read::Line;
    }

    // No complete frame buffered: wait for bytes.  A frame already under way
    // runs against its frame deadline; otherwise only the caller's idle
    // budget applies.
    Deadline wait = idle;
    if (frame_in_progress_) wait = wait.min(frame_deadline_);
    switch (read_chunk(fd_, &buffer_, wait)) {
      case IoStatus::Ok:
        if (!frame_in_progress_ && !buffer_.empty()) {
          frame_in_progress_ = true;
          frame_deadline_ = Deadline::after(limits_.frame_timeout_s);
        }
        break;  // loop: maybe a full frame now
      case IoStatus::Eof:
        return Read::Eof;
      case IoStatus::Timeout:
        if (frame_in_progress_ && frame_deadline_.expired()) return Read::FrameTimeout;
        return Read::Idle;
      case IoStatus::Error:
        return Read::Error;
    }
  }
}

IoStatus Session::write_line(std::string_view line) {
  std::string framed;
  framed.reserve(line.size() + 1);
  framed.append(line);
  framed.push_back('\n');
  return write_all(fd_, framed, Deadline::after(limits_.write_timeout_s));
}

}  // namespace mps::net
