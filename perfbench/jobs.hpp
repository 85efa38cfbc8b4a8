// One job = one .g text turned into a verified netlist (or, on the symbolic
// workload, into a BDD CSC verdict).  run_job is the timed, untraced path;
// run_traced_job makes the same public calls one layer at a time, each in a
// span, and counts the work each layer did.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "svc/artifact.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What a job produced, reduced to what the checks compare.
struct JobResult {
  double seconds = 0.0;      ///< job wall time
  double cpu_seconds = 0.0;  ///< job CPU time, every thread (untraced jobs only)
  /// Known-answer mismatches, failed synthesis and exceptions; empty = ok.
  std::vector<std::string> failures;
  mps::svc::Artifact artifact;  ///< synthesis jobs only
  /// Deterministic counts that must repeat exactly from pass to pass.
  std::map<std::string, double> repeat;
};

/// Counter name -> value, summed over a pass (logic.vars_max: maximum).
using Counters = std::map<std::string, double>;

/// Timed job: parse_g + run_synthesis + Artifact::serialize, or on the
/// symbolic workload parse_g + SymbolicStg + reachable() + check_csc().
JobResult run_job(const Workload& w, const Job& job);

/// Traced job: records spans under a root span named "job" into `rec` and
/// adds its layer counters to `counters`.  After the job, outside its span,
/// it runs a standalone verify_speed_independence on the job's netlist
/// (netlist.si_s, netlist.si_states) and, with `exact_probe`,
/// heuristic_minimize vs exact_minimize on every extracted function
/// (logic.exact_attempts, logic.exact_wins).
JobResult run_traced_job(const Workload& w, const Job& job, int job_id, bool exact_probe,
                         Recorder* rec, Counters* counters);

/// Differences between the traced and the untraced result of one job
/// (covers, literals, gates, netlist); empty = identical.
std::vector<std::string> compare_results(const JobResult& untraced, const JobResult& traced);

}  // namespace perfbench
