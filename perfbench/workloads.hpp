// The benchmark's workloads: fixed job lists, their request options, and
// each job's known answer.  README.md records why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "svc/artifact.hpp"

namespace perfbench {

/// Known answer for a synthesis job.  The quality numbers come from the
/// committed BENCH_table1.json (table1) or perfbench/expected.json (the
/// generated workloads); `spec_semi_modular` is read off the spec's own
/// state graph during set-up.
struct SynthAnswer {
  std::int64_t final_states = 0;
  std::int64_t final_signals = 0;
  std::int64_t literals = 0;
  std::int64_t gates = 0;
  std::int64_t transistors = 0;
  /// False when the spec itself disables a non-input transition: then
  /// verify:: must fail semi_modular and pass every other check.
  bool spec_semi_modular = true;
};

/// Known answer for a symbolic CSC-check job (perfbench/expected.json).
struct SymbolicAnswer {
  double states = 0;
  bool csc_holds = false;
  std::int64_t csc_conflicts = 0;
};

struct Job {
  std::string name;
  std::string g_text;  ///< the .g text the job parses
  SynthAnswer synth;
  SymbolicAnswer symbolic;
};

struct Workload {
  std::string name;
  bool symbolic = false;
  mps::svc::RequestOptions opts;
  std::vector<Job> jobs;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Set-up: generate every spec of the workload, serialize it to .g text,
/// parse that text once, and attach the known answers (read from files
/// under `root`, the checkout root).  Throws mps::util::Error when a file
/// or an answer is missing.
Workload make_workload(const std::string& name, const std::string& root);

/// Symbolic cross-check outside the timed passes: symbolic vs explicit
/// engine (state count, CSC verdict) on parallelizer:6 and pipeline:10.
/// Returns one message per disagreement.
std::vector<std::string> symbolic_cross_check();

}  // namespace perfbench
