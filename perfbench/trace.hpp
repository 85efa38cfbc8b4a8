// In-memory span recorder for the traced run.
//
// The harness wraps each public call into a layer (parse, reachability,
// CSC insertion, extraction, minimization, verification, netlist) in a
// span; nothing inside the library is instrumented.  Spans carry a name,
// start and end (seconds since the recorder was created), the index of the
// enclosing span, and the job they belong to.  They stay in memory and are
// written out once, when the run ends.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< a string literal: layer names are fixed
  int job = -1;
  int parent = -1;  ///< index into Recorder::spans(), -1 for a job root
  double start = 0.0;
  double end = 0.0;
  double seconds() const { return end - start; }
};

class Recorder {
 public:
  Recorder() : origin_(std::chrono::steady_clock::now()) {}

  int begin(const char* name, int job, int parent) {
    spans_.push_back(Span{name, job, parent, now(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end = now(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span: its duration minus the part its direct children cover
  /// (children never overlap: the harness is serial).
  std::vector<double> self_times() const {
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[i] += spans_[i].seconds();
      const int parent = spans_[i].parent;
      if (parent >= 0) self[static_cast<std::size_t>(parent)] -= spans_[i].seconds();
    }
    return self;
  }

  /// Self time summed per span name.
  std::map<std::string, double> self_seconds_by_name() const {
    const std::vector<double> self = self_times();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
  }

 private:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_).count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span: begins at construction, ends at scope exit.
class Scoped {
 public:
  Scoped(Recorder& rec, const char* name, int job, int parent)
      : rec_(rec), id_(rec.begin(name, job, parent)) {}
  ~Scoped() { rec_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  int id() const { return id_; }

 private:
  Recorder& rec_;
  int id_;
};

}  // namespace perfbench
