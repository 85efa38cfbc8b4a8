// perfbench_harness — runs one workload of the benchmark and prints one
// JSON result line (the format perfbench/run.py passes on).
//
//   perfbench_harness --workload W --seed N --seconds S --trace 0|1
//                     --root DIR [--trace-out FILE] [--setup-only]
//
// --trace 0: closed-loop timed passes over the workload's jobs (one client,
//   no cache, job order shuffled per pass by --seed) within S seconds, and
//   at least kMinPasses of them; prints the end-to-end metrics.  Every time
//   is in reference seconds (calibrate.hpp): CPU seconds rescaled by the
//   host gauge sampled between the jobs of the same pass.
// --trace 1: one untraced pass, then traced passes (same S rule) that make
//   the layer calls one by one in spans; prints the per-layer metrics (times
//   rescaled the same way) and writes the spans to --trace-out.
// --setup-only: build the workload, print "ready" and exit (perfbench/run.py
//   times this from process start for setup_s).
//
// Every job is checked against its known answer; a mismatch is a failed job.
// Self-check failures (traced vs untraced results, counts that do not
// repeat, layer spans covering < 90% of a job) make "correct" false.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "jobs.hpp"
#include "svc/json.hpp"
#include "trace.hpp"
#include "util/common.hpp"
#include "util/parse.hpp"
#include "util/text.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Counters;
using perfbench::JobResult;
using perfbench::median;
using perfbench::Recorder;
using perfbench::Workload;
using mps::svc::Json;

constexpr int kMinPasses = 2;
constexpr double kMinCoverage = 0.90;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string root = ".";
  std::string trace_out;
  bool setup_only = false;
};

struct Metric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, printed on every workload (0 where the layer
/// does not run).  README.md maps each to the end-to-end metric it moves.
const std::vector<Metric> kLayerMetrics = {
    {"stg.parse_s", "s"},          {"sg.reach_s", "s"},
    {"sg.initial_states", "count"}, {"core.insert_s", "s"},
    {"core.insert_self_s", "s"},   {"core.rounds", "count"},
    {"core.modules", "count"},     {"core.module_states", "count"},
    {"sat.solve_s", "s"},          {"sat.formulas", "count"},
    {"sat.clauses", "count"},      {"sat.decisions", "count"},
    {"sat.conflicts", "count"},    {"sat.limit_hits", "count"},
    {"sg.final_states", "count"},  {"state_signals", "count"},
    {"logic.extract_s", "s"},      {"logic.functions", "count"},
    {"logic.on_minterms", "count"}, {"logic.off_minterms", "count"},
    {"logic.minimize_s", "s"},     {"logic.cubes", "count"},
    {"logic.vars_max", "count"},   {"literals", "count"},
    {"logic.exact_attempts", "count"}, {"logic.exact_wins", "count"},
    {"verify.check_s", "s"},       {"netlist.build_s", "s"},
    {"netlist.gates", "count"},    {"netlist.transistors", "count"},
    {"netlist.si_s", "s"},         {"netlist.si_states", "count"},
    {"bdd.compile_s", "s"},        {"bdd.reach_s", "s"},
    {"bdd.csc_s", "s"},            {"bdd.free_s", "s"},
    {"bdd.iterations", "count"},
    {"bdd.nodes", "count"},        {"bdd.states", "count"},
    {"svc.other_s", "s"},          {"trace.coverage_min", "ratio"},
    {"trace.traced_wall_s", "s"},  {"trace.untraced_wall_s", "s"},
    {"trace.overhead", "ratio"},   {"host.gauge_ms", "ms"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload table1|pipeline|sequencer|symbolic\n"
               "         --seed N --seconds S --trace 0|1 --root DIR\n"
               "         [--trace-out FILE] [--setup-only]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      a->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      const auto n = mps::util::parse_int(v, 0, INT64_MAX);
      if (!n.has_value()) return false;
      a->seed = static_cast<std::uint64_t>(*n);
    } else if (arg == "--seconds") {
      const auto n = mps::util::parse_int(v, 1, 3600);
      if (!n.has_value()) return false;
      a->seconds = static_cast<double>(*n);
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1" ? 1 : 0;
    } else if (arg == "--root") {
      a->root = v;
    } else if (arg == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  const auto& names = perfbench::workload_names();
  return std::find(names.begin(), names.end(), a->workload) != names.end();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Passes run back to back while the next one, judged by the slowest so
/// far, still ends within the run's seconds; at least kMinPasses run.
class PassClock {
 public:
  explicit PassClock(double seconds) : seconds_(seconds) {}
  bool another(int done) const {
    return done < kMinPasses || run_.seconds() + slowest_ <= seconds_;
  }
  void pass_ended(double pass_seconds) { slowest_ = std::max(slowest_, pass_seconds); }

 private:
  double seconds_;
  mps::util::Timer run_;
  double slowest_ = 0.0;
};

/// The job order of one pass: a seeded Fisher-Yates shuffle.
std::vector<std::size_t> pass_order(std::size_t n, mps::util::Rng* rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng->below(i)]);
  return order;
}

/// Totals of a run, shared by both modes.
struct Run {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;  ///< self-check failures
  /// Per job: the deterministic counts of its first result.
  std::vector<std::map<std::string, double>> first_repeat;

  /// Count a job, report its failures, and check its repeatable counts.
  void record(const Workload& w, std::size_t idx, const JobResult& r) {
    ++attempted;
    const std::string& name = w.jobs[idx].name;
    if (!r.failures.empty()) {
      ++failed;
      for (const std::string& failure : r.failures) {
        std::fprintf(stderr, "perfbench: job %s failed: %s\n", name.c_str(), failure.c_str());
      }
    }
    if (first_repeat.size() < w.jobs.size()) first_repeat.resize(w.jobs.size());
    auto& first = first_repeat[idx];
    for (const auto& [key, value] : r.repeat) {
      const auto [it, inserted] = first.emplace(key, value);
      if (!inserted && it->second != value) {
        problems.push_back("job " + name + ": " + key + " did not repeat (" +
                           std::to_string(it->second) + " vs " + std::to_string(value) + ")");
      }
    }
  }
};

std::map<std::string, double> untraced_run(const Workload& w, const Args& args,
                                           mps::util::Rng* rng, Run* run) {
  std::vector<double> passes, maxes;
  std::vector<std::vector<double>> per_job(w.jobs.size());
  perfbench::HostGauge gauge;
  PassClock clock(args.seconds);
  for (int pass = 0; clock.another(pass); ++pass) {
    const mps::util::Timer pass_timer;
    std::vector<double> jobs;
    const std::vector<std::size_t> order = pass_order(w.jobs.size(), rng);
    for (const std::size_t idx : order) {
      const JobResult r = perfbench::run_job(w, w.jobs[idx]);
      gauge.follow(r.cpu_seconds);
      jobs.push_back(r.cpu_seconds);
      run->record(w, idx, r);
    }
    const double cpu = std::accumulate(jobs.begin(), jobs.end(), 0.0);
    const double scale = gauge.end_pass();
    passes.push_back(cpu * scale);
    maxes.push_back(*std::max_element(jobs.begin(), jobs.end()) * scale);
    for (std::size_t i = 0; i < jobs.size(); ++i) per_job[order[i]].push_back(jobs[i] * scale);
    clock.pass_ended(pass_timer.seconds());
    std::fprintf(stderr, "perfbench: %s pass %d: %.3f s CPU, gauge %.3f ms, %.3f reference s\n",
                 w.name.c_str(), pass + 1, cpu, 1e3 * gauge.last_median(), passes.back());
  }
  std::vector<double> job_medians;
  for (const std::vector<double>& times : per_job) job_medians.push_back(median(times));
  return {
      {"pass_ref_s", median(passes)},
      {"job_p50_ref_s", median(job_medians)},
      {"job_max_ref_s", median(maxes)},
      {"peak_rss_mb", peak_rss_mb() - perfbench::HostGauge::kResidentMb},
      {"ok_share", static_cast<double>(run->attempted - run->failed) /
                       static_cast<double>(run->attempted)},
  };
}

/// Write every pass's spans as Chrome trace events (pid = pass).
void write_spans(const std::string& path, const std::vector<Recorder>& recorders) {
  Json events = Json::array();
  for (std::size_t pass = 0; pass < recorders.size(); ++pass) {
    for (const perfbench::Span& s : recorders[pass].spans()) {
      Json e = Json::object();
      e.set("name", s.name);
      e.set("ph", "X");
      e.set("ts", Json(s.start * 1e6));
      e.set("dur", Json(s.seconds() * 1e6));
      e.set("pid", Json(static_cast<std::int64_t>(pass)));
      e.set("tid", Json(1));
      Json span_args = Json::object();
      span_args.set("job", Json(s.job));
      span_args.set("parent", Json(s.parent));
      e.set("args", std::move(span_args));
      events.push_back(std::move(e));
    }
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

std::map<std::string, double> traced_run(const Workload& w, const Args& args,
                                         mps::util::Rng* rng, Run* run) {
  const std::size_t n = w.jobs.size();
  // The untraced reference pass: results to compare against and the
  // baseline of the tracing overhead.
  perfbench::HostGauge gauge;
  std::vector<double> gauge_ms;
  std::vector<JobResult> untraced(n);
  double untraced_wall = 0.0;
  for (const std::size_t idx : pass_order(n, rng)) {
    untraced[idx] = perfbench::run_job(w, w.jobs[idx]);
    gauge.follow(untraced[idx].seconds);
    untraced_wall += untraced[idx].seconds;
    run->record(w, idx, untraced[idx]);
  }
  untraced_wall *= gauge.end_pass();
  gauge_ms.push_back(1e3 * gauge.last_median());

  std::vector<Recorder> recorders;
  std::map<std::string, std::vector<double>> per_pass;
  double coverage_min = 1.0;
  PassClock clock(args.seconds);
  for (int pass = 0; clock.another(pass); ++pass) {
    const mps::util::Timer pass_timer;
    Recorder& rec = recorders.emplace_back();
    Counters counters;
    const bool exact_probe = pass == 0;  // exact QM is slow; its counts are deterministic
    double traced_wall = 0.0;
    for (const std::size_t idx : pass_order(n, rng)) {
      const int job_id = static_cast<int>(static_cast<std::size_t>(pass) * n + idx);
      const JobResult r =
          perfbench::run_traced_job(w, w.jobs[idx], job_id, exact_probe, &rec, &counters);
      gauge.follow(r.seconds);
      traced_wall += r.seconds;
      run->record(w, idx, r);
      for (const std::string& d : perfbench::compare_results(untraced[idx], r)) {
        run->problems.push_back("job " + w.jobs[idx].name + ": traced vs untraced: " + d);
      }
    }

    const std::vector<double> self = rec.self_times();
    for (std::size_t i = 0; i < rec.spans().size(); ++i) {
      const perfbench::Span& s = rec.spans()[i];
      if (std::strcmp(s.name, "job") != 0 || s.seconds() <= 0) continue;
      const double coverage = 1.0 - self[i] / s.seconds();
      coverage_min = std::min(coverage_min, coverage);
      if (coverage < kMinCoverage) {
        const std::string& name = w.jobs[static_cast<std::size_t>(s.job) % n].name;
        run->problems.push_back(mps::util::format("job %s: layer spans cover %.1f%% of %.6f s",
                                                  name.c_str(), 100.0 * coverage, s.seconds()));
      }
    }
    for (const auto& [name, seconds] : rec.self_seconds_by_name()) counters[name + "_s"] = seconds;
    // Job wall time outside the layer calls: artifact filling and
    // serialization (a named span, counted towards coverage) plus the gaps.
    counters["svc.other_s"] = counters["job_s"] + counters["svc.artifact_s"];
    counters["core.insert_self_s"] =
        std::max(0.0, counters["core.insert_s"] - counters["sat.solve_s"]);
    counters["trace.traced_wall_s"] = traced_wall;
    // Every time of the pass in reference seconds, like the end-to-end ones.
    const double scale = gauge.end_pass();
    gauge_ms.push_back(1e3 * gauge.last_median());
    for (auto& [name, value] : counters) {
      if (name.size() > 2 && name.compare(name.size() - 2, 2, "_s") == 0) value *= scale;
    }
    for (const auto& [name, value] : counters) per_pass[name].push_back(value);
    std::fprintf(stderr, "perfbench: %s traced pass %d: %.3f s\n", w.name.c_str(), pass + 1,
                 traced_wall);
    clock.pass_ended(pass_timer.seconds());
  }
  if (!args.trace_out.empty()) write_spans(args.trace_out, recorders);

  std::map<std::string, double> metrics;
  for (const auto& [name, values] : per_pass) metrics[name] = median(values);
  metrics["trace.coverage_min"] = coverage_min;
  metrics["trace.untraced_wall_s"] = untraced_wall;
  metrics["host.gauge_ms"] = median(gauge_ms);
  metrics["trace.overhead"] = metrics["trace.traced_wall_s"] / untraced_wall;
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return usage();

  Workload w;
  try {
    w = perfbench::make_workload(args.workload, args.root);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
    return 2;
  }
  if (args.setup_only) {
    std::printf("ready\n");
    return 0;
  }

  mps::util::Rng rng(args.seed);
  Run run;
  std::map<std::string, double> values;
  std::vector<Metric> reported;
  if (args.trace == 0) {
    values = untraced_run(w, args, &rng, &run);
    reported = {{"pass_ref_s", "s"}, {"job_p50_ref_s", "s"}, {"job_max_ref_s", "s"},
                {"peak_rss_mb", "MB"}, {"ok_share", "ratio"}};
  } else {
    values = traced_run(w, args, &rng, &run);
    reported = kLayerMetrics;
  }
  if (w.symbolic) {
    for (const std::string& mismatch : perfbench::symbolic_cross_check()) {
      run.problems.push_back("symbolic cross-check: " + mismatch);
    }
  }
  for (const std::string& p : run.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }

  Json metrics = Json::object();
  for (const Metric& m : reported) {
    Json entry = Json::object();
    const auto it = values.find(m.name);
    entry.set("value", Json(it == values.end() ? 0.0 : it->second));
    entry.set("unit", m.unit);
    metrics.set(m.name, std::move(entry));
  }
  Json out = Json::object();
  out.set("correct", Json(run.failed == 0 && run.problems.empty()));
  out.set("attempted", Json(run.attempted));
  out.set("failed", Json(run.failed));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}
