// perfbench_driver — one run of one workload of the end-to-end benchmark.
//
//   perfbench_driver --workload serve-50k|serve-vancouver|plan-cities
//                    --seed N --seconds S --trace 0|1
//                    --out DIR --serve PATH/TO/gepc_serve
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. run.py
// builds the driver and gepc_serve and calls this; see README.md for the
// workloads, the metrics and how they relate.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checker.h"
#include "common/memory_tracker.h"
#include "core/itinerary.h"
#include "data/cities.h"
#include "data/generator.h"
#include "data/io.h"
#include "gepc/solver.h"
#include "iep/op_spec.h"
#include "iep/planner.h"
#include "json.h"
#include "obs/metrics.h"
#include "service/journal.h"
#include "service/planning_service.h"
#include "service/snapshot.h"
#include "shard/sharded_solver.h"
#include "trace.h"
#include "wire.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kProcessStart = Clock::now();

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}
double MsSince(Clock::time_point t) { return 1000.0 * Since(t); }

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  std::string out = "perfbench/out";
  std::string serve;
};

/// Everything one run reports.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> end_to_end;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> layers;

  void Fail(const std::string& why) {
    if (correct) std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
    correct = false;
  }
  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, {value, unit}});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, {value, unit}});
  }
};

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}


int64_t OwnPeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;
}

// ---------------------------------------------------------------------------
// Instances and solver presets (fixed: the seed drives only the op traces)
// ---------------------------------------------------------------------------

/// The bench_shard_scaling shape: 50k users x 200 events, budgets at 4-12%
/// of the city diagonal, capacity about twice the per-event load.
gepc::Instance Make50k() {
  gepc::GeneratorConfig config;
  config.num_users = 50000;
  config.num_events = 200;
  config.mean_xi = 2;
  config.mean_eta = 2 * config.num_users / config.num_events;
  config.seed = 4242;
  config.budget_min_fraction = 0.04;
  config.budget_max_fraction = 0.12;
  return *gepc::GenerateInstance(config);
}

gepc::Instance MakeCity(const std::string& name) {
  return *gepc::GenerateCity(*gepc::FindCity(name), /*seed=*/42);
}

gepc::GepcOptions GreedyOptions() {
  gepc::GepcOptions options;
  options.algorithm = gepc::GepcAlgorithm::kGreedy;
  options.greedy.seed = 1;
  return options;
}

gepc::GepcOptions GapOptions() {
  gepc::GepcOptions options;
  options.algorithm = gepc::GepcAlgorithm::kGapBased;
  options.gap_based.gap.engine = gepc::GapLpEngine::kAuto;
  options.gap_based.gap.auto_simplex_limit = 8000;
  options.gap_based.gap.lp.max_candidates_per_job = 20;
  options.greedy.seed = 1;
  return options;
}

PlanRows RowsOf(const gepc::Plan& plan) {
  PlanRows rows(static_cast<size_t>(plan.num_users()));
  for (int u = 0; u < plan.num_users(); ++u) {
    rows[static_cast<size_t>(u)] = plan.events_of(u);
  }
  return rows;
}

/// Checks a solver result with the independent checker: feasible, and the
/// reported utility and below-xi count equal the recomputed ones.
void CheckSolve(const std::string& what, const Model& model, const gepc::GepcResult& result,
                Report* report) {
  const PlanCheck check = CheckPlan(model, RowsOf(result.plan));
  if (!check.feasible) report->Fail(what + ": infeasible plan: " + check.violation);
  if (!Close(check.utility, result.total_utility)) {
    report->Fail(what + ": reported utility differs from the recomputed one");
  }
  if (check.below_xi != result.events_below_lower_bound) {
    report->Fail(what + ": reported below-xi count differs from the recomputed one");
  }
}

/// Sum of a process-registry histogram (ms busy) or a counter's value.
double RegistrySum(const std::string& name) {
  return gepc::obs::Registry::Global().GetHistogram(name)->Snapshot().sum;
}
double RegistryCount(const std::string& name) {
  return static_cast<double>(gepc::obs::Registry::Global().GetCounter(name)->value());
}

void SolverLayers(Report* report) {
  report->Layer("gepc.xi_ms", RegistrySum("gepc_solver_xi_ms"), "ms");
  report->Layer("gepc.topup_ms", RegistrySum("gepc_solver_topup_ms"), "ms");
  report->Layer("gap.lp_ms", RegistrySum("gepc_gap_lp_ms"), "ms");
  report->Layer("gap.round_ms", RegistrySum("gepc_gap_round_ms"), "ms");
  report->Layer("gap.lp_solves", RegistryCount("gepc_gap_lp_solves_total"), "count");
  report->Layer("gap.lp_arena_allocs", RegistryCount("gepc_gap_lp_arena_allocs_total"),
                "count");
  report->Layer("shard.partition_ms", RegistrySum("gepc_shard_partition_ms"), "ms");
  report->Layer("shard.solve_ms", RegistrySum("gepc_shard_solve_ms"), "ms");
  report->Layer("flow.solve_ms", RegistrySum("gepc_flow_solve_ms"), "ms");
}

/// Pins the calling thread (and any server it forks) to one CPU and
/// restores the previous mask when it goes out of scope. `index`
/// counts the allowed CPUs from the last one, so consecutive passes and
/// repetitions land on different CPUs: on a shared VM each virtual CPU is
/// slowed by its own neighbours, and samples taken on several of them are
/// less often all disturbed at once.
///
/// With one client in a closed loop only one thread is runnable at a time,
/// so one CPU is enough for a served pass; pinning turns each request's four
/// thread handoffs (client, event loop, worker, event loop) into same-CPU
/// switches instead of wake-ups of other, possibly halted, virtual CPUs,
/// whose latency is the hypervisor's, not the program's.
class CpuPin {
 public:
  explicit CpuPin(int index) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::vector<int> allowed;
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &saved_)) allowed.push_back(cpu);
    }
    if (allowed.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(allowed[static_cast<size_t>(index) % allowed.size()], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

/// A timed solve on one CPU (see CpuPin); returns seconds.
double TimedSolve(const gepc::Instance& instance, const gepc::GepcOptions& options, int cpu,
                  gepc::GepcResult* out) {
  const CpuPin pin(cpu);
  const Clock::time_point t = Clock::now();
  auto solved = gepc::SolveGepc(instance, options);
  const double seconds = Since(t);
  if (!solved.ok()) {
    std::fprintf(stderr, "perfbench: solve failed: %s\n",
                 solved.status().ToString().c_str());
    std::exit(1);
  }
  *out = *std::move(solved);
  return seconds;
}

// ---------------------------------------------------------------------------
// Running a trace: the per-op checks are shared by the served and the
// in-process paths
// ---------------------------------------------------------------------------

/// One recorded span (chrome://tracing "X" event); `id` ties the spans of
/// one request or op together.
struct Span {
  std::string name;
  double start_us;
  double dur_us;
  int64_t id;
};

double MicrosSinceStart(Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - kProcessStart).count();
}

constexpr double kNotRun = std::numeric_limits<double>::infinity();

/// One pass of the trace. Requests are timed one by one; their replies are
/// kept and checked after the pass, so the pass's wall time holds the
/// requests and not the checker.
struct TraceOutcome {
  std::vector<Span> spans;  // client-side, traced runs only
  /// Latency of every step of the trace, kNotRun where the step was not run
  /// or failed.
  std::vector<double> step_ms;
  std::vector<double> write_ms;  // every write's latency, for the accounting
  double wall_ms = 0.0;          // first request sent to last reply
  int64_t dif_total = 0;
  int64_t applied = 0;
  int64_t failed = 0;
  double last_utility = 0.0;
  int last_below_xi = 0;
};

/// Checks one write's reply fields against the paper's properties: Alg. 3
/// removes exactly attendance - new eta; xi decreases and eta increases
/// remove nobody.
void CheckWriteProperties(const Step& step, int attendance_before, int64_t dif,
                          Report* report) {
  const int value = std::atoi(step.spec.substr(step.spec.rfind(':') + 1).c_str());
  if (step.kind == kEtaDec && attendance_before > value &&
      dif != attendance_before - value) {
    report->Fail("op " + step.spec + ": Alg. 3 dif " + std::to_string(dif) +
                 " != attendance " + std::to_string(attendance_before) + " - eta " +
                 std::to_string(value));
  }
  if ((step.kind == kXiDec || step.kind == kEtaInc) && dif != 0) {
    report->Fail("op " + step.spec + ": dif " + std::to_string(dif) + ", expected 0");
  }
}

std::string RequestLine(const Step& step) {
  if (step.type == Step::kWrite) return "{\"cmd\":\"apply\",\"op\":\"" + step.spec + "\"}";
  if (step.type == Step::kQueryUser) {
    return "{\"cmd\":\"query_user\",\"user\":" + std::to_string(step.target) + "}";
  }
  return "{\"cmd\":\"query_event\",\"event\":" + std::to_string(step.target) + "}";
}

/// The served path: one closed-loop connection, one request at a time.
/// `model` follows the trace as the replies are checked.
TraceOutcome RunServedTrace(const std::vector<Step>& trace, Model* model,
                            WireClient* client, bool record_spans, Report* report) {
  TraceOutcome out;
  out.step_ms.assign(trace.size(), kNotRun);
  std::vector<std::string> lines, replies(trace.size());
  for (const Step& step : trace) lines.push_back(RequestLine(step));
  std::vector<double> ms(trace.size(), kNotRun);
  size_t sent_count = 0;
  const Clock::time_point begin = Clock::now();
  for (; sent_count < trace.size(); ++sent_count) {
    const size_t i = sent_count;
    const Clock::time_point sent = Clock::now();
    const bool delivered = client->Request(lines[i], &replies[i]);
    ms[i] = MsSince(sent);
    if (record_spans) {
      out.spans.push_back({trace[i].type == Step::kWrite
                               ? std::string("client.apply.") + OpKindName(trace[i].kind)
                               : std::string("client.read"),
                           MicrosSinceStart(sent), 1000.0 * ms[i],
                           static_cast<int64_t>(out.spans.size())});
    }
    if (!delivered) {
      ++out.failed;
      report->Fail("request failed: " + lines[i] + " -> " + replies[i]);
      break;
    }
  }
  out.wall_ms = MsSince(begin);

  int attendance_before = -1;
  for (size_t i = 0; i < sent_count; ++i) {
    const Step& step = trace[i];
    Json reply;
    if (!Json::Parse(replies[i], &reply) || !reply.Bool("ok")) {
      ++out.failed;
      report->Fail("request failed: " + lines[i] + " -> " + replies[i]);
      continue;
    }
    std::string why;
    if (step.type == Step::kWrite) {
      out.write_ms.push_back(ms[i]);
      if (!reply.Bool("applied")) {
        ++out.failed;
        report->Fail("op " + step.spec + " rejected: " + reply.Str("error"));
        continue;
      }
      out.step_ms[i] = ms[i];
      ++out.applied;
      const int64_t dif = static_cast<int64_t>(reply.Num("dif"));
      out.dif_total += dif;
      out.last_utility = reply.Num("utility");
      out.last_below_xi = static_cast<int>(reply.Num("below_xi"));
      CheckWriteProperties(step, attendance_before, dif, report);
      model->ApplySpec(step.spec, &why);
    } else {
      out.step_ms[i] = ms[i];
      const bool ok = step.type == Step::kQueryUser
                          ? CheckItineraryReply(*model, step.target, reply, &why)
                          : CheckEventReply(*model, step.target, reply, &why);
      if (!ok) report->Fail(why);
      if (step.pre_read) attendance_before = static_cast<int>(reply.Num("attendance"));
    }
  }
  return out;
}

/// Renders an in-process itinerary the way the server does, so the same
/// reply checker applies.
Json ItineraryJson(const gepc::Itinerary& it) {
  Json j;
  j.type = Json::Type::kObject;
  auto num = [](double v) {
    Json n;
    n.type = Json::Type::kNumber;
    n.number = v;
    return n;
  };
  j.fields["ok"].type = Json::Type::kBool;
  j.fields["ok"].boolean = true;
  j.fields["user"] = num(it.user);
  j.fields["travel"] = num(it.total_travel);
  j.fields["utility"] = num(it.total_utility);
  j.fields["cost"] = num(it.total_cost);
  Json& stops = j.fields["stops"];
  stops.type = Json::Type::kArray;
  for (const gepc::ItineraryStop& s : it.stops) {
    Json stop;
    stop.type = Json::Type::kObject;
    stop.fields["event"] = num(s.event);
    stop.fields["start"] = num(s.time.start);
    stop.fields["end"] = num(s.time.end);
    stop.fields["travel"] = num(s.travel_from_previous);
    stop.fields["utility"] = num(s.utility);
    stops.items.push_back(stop);
  }
  return j;
}

/// The in-process path (plan-cities): writes are IncrementalPlanner::Apply,
/// reads are the itinerary / attendance lookups a snapshot read performs.
TraceOutcome RunInProcessTrace(const std::vector<Step>& trace, Model* model,
                               gepc::IncrementalPlanner* planner, Report* report) {
  // What each step returned, checked after the pass.
  struct Reply {
    bool ok = false;
    std::string error;
    int64_t dif = 0;
    double utility = 0.0;
    int below_xi = 0;
    gepc::Itinerary itinerary;
    int attendance = 0, xi = 0, eta = 0;
  };
  TraceOutcome out;
  out.step_ms.assign(trace.size(), kNotRun);
  std::vector<Reply> replies(trace.size());
  std::vector<double> ms(trace.size());
  const Clock::time_point begin = Clock::now();
  for (size_t i = 0; i < trace.size(); ++i) {
    const Step& step = trace[i];
    Reply& reply = replies[i];
    if (step.type == Step::kWrite) {
      auto op = gepc::ParseOpSpec(step.spec);
      const Clock::time_point sent = Clock::now();
      auto result = planner->Apply(*op);
      ms[i] = MsSince(sent);
      reply.ok = result.ok();
      if (!result.ok()) {
        reply.error = result.status().ToString();
        continue;
      }
      reply.dif = result->negative_impact;
      reply.utility = result->total_utility;
      reply.below_xi = result->events_below_lower_bound;
    } else if (step.type == Step::kQueryUser) {
      const Clock::time_point sent = Clock::now();
      gepc::Itinerary it = gepc::BuildItinerary(planner->instance(), planner->plan(), step.target);
      ms[i] = MsSince(sent);
      reply.itinerary = std::move(it);
    } else {
      const Clock::time_point sent = Clock::now();
      const int attendance = planner->plan().attendance(step.target);
      const gepc::Event& event = planner->instance().event(step.target);
      ms[i] = MsSince(sent);
      reply.attendance = attendance;
      reply.xi = event.lower_bound;
      reply.eta = event.upper_bound;
    }
  }
  out.wall_ms = MsSince(begin);

  int attendance_before = -1;
  for (size_t i = 0; i < trace.size(); ++i) {
    const Step& step = trace[i];
    const Reply& reply = replies[i];
    std::string why;
    if (step.type == Step::kWrite) {
      out.write_ms.push_back(ms[i]);
      if (!reply.ok) {
        ++out.failed;
        report->Fail("op " + step.spec + " rejected: " + reply.error);
        continue;
      }
      out.step_ms[i] = ms[i];
      ++out.applied;
      out.dif_total += reply.dif;
      out.last_utility = reply.utility;
      out.last_below_xi = reply.below_xi;
      CheckWriteProperties(step, attendance_before, reply.dif, report);
      model->ApplySpec(step.spec, &why);
    } else if (step.type == Step::kQueryUser) {
      out.step_ms[i] = ms[i];
      if (!CheckItineraryReply(*model, step.target, ItineraryJson(reply.itinerary), &why)) {
        report->Fail(why);
      }
    } else {
      out.step_ms[i] = ms[i];
      if (reply.xi != model->xi[step.target] || reply.eta != model->eta[step.target] ||
          reply.attendance > model->eta[step.target]) {
        report->Fail("event " + std::to_string(step.target) + " differs from the trace");
      }
      if (step.pre_read) attendance_before = reply.attendance;
    }
  }
  return out;
}

/// Final-state checks shared by both paths: the plan is feasible on the
/// checker's mutated instance, and its utility and below-xi count equal
/// those of the last reply.
void CheckFinalPlan(const Model& model, const PlanRows& plan, const TraceOutcome& run,
                    Report* report, double* utility) {
  const PlanCheck check = CheckPlan(model, plan);
  if (!check.feasible) report->Fail("final plan infeasible: " + check.violation);
  if (run.applied > 0) {
    if (!Close(check.utility, run.last_utility)) {
      report->Fail("final plan utility " + std::to_string(check.utility) +
                   " differs from the last reply's " + std::to_string(run.last_utility));
    }
    if (check.below_xi != run.last_below_xi) {
      report->Fail("final below-xi count differs from the last reply's");
    }
  }
  *utility = check.utility;
}

/// The trace metrics of a run made of identical passes of the same trace
/// from the same start. Each request's latency is its fastest sample over
/// the passes, and the percentiles are taken over the trace's requests.
/// Contention on a shared machine only ever adds time, so the fastest
/// sample of a request is the steadiest estimate of what the program spends
/// on it. requests_per_s is the fastest pass's: the trace's requests over
/// that pass's wall time. The passes must agree exactly on what they
/// computed.
struct TraceFigures {
  double write_p50_ms, write_p90_ms, read_p50_ms, read_p99_ms, requests_per_s;
};

TraceFigures Fastest(const std::vector<Step>& trace, const std::vector<TraceOutcome>& passes,
                     Report* report) {
  double best_rate = 0.0;
  for (const TraceOutcome& pass : passes) {
    if (pass.dif_total != passes.front().dif_total ||
        pass.last_utility != passes.front().last_utility) {
      report->Fail("identical passes of the trace computed different plans");
    }
    if (pass.wall_ms > 0) {
      best_rate = std::max(best_rate,
                           1000.0 * static_cast<double>(trace.size()) / pass.wall_ms);
    }
  }
  std::vector<double> write_ms, read_ms;
  for (size_t i = 0; i < trace.size(); ++i) {
    double fastest = kNotRun;
    for (const TraceOutcome& pass : passes) fastest = std::min(fastest, pass.step_ms[i]);
    if (fastest == kNotRun) continue;
    (trace[i].type == Step::kWrite ? write_ms : read_ms).push_back(fastest);
  }
  return {Quantile(write_ms, 0.50), Quantile(write_ms, 0.90), Quantile(read_ms, 0.50),
          Quantile(read_ms, 0.99), best_rate};
}

void TraceE2e(const TraceFigures& figures, Report* report) {
  report->E2e("write_p50_ms", figures.write_p50_ms, "ms");
  report->E2e("write_p90_ms", figures.write_p90_ms, "ms");
  report->E2e("read_p50_ms", figures.read_p50_ms, "ms");
  report->E2e("read_p99_ms", figures.read_p99_ms, "ms");
  report->E2e("requests_per_s", figures.requests_per_s, "1/s");
}

// ---------------------------------------------------------------------------
// Per-layer replay: the same trace through the public service-layer calls,
// timed from outside
// ---------------------------------------------------------------------------

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_us, s.dur_us,
                  static_cast<long long>(s.id));
    out << buffer;
  }
  out << "]}\n";
}

struct ReplayLayers {
  double publish_ms = 0.0;     // mean per write
  double publish_bytes = 0.0;  // mean per write
  double query_user_ms = 0.0;  // mean per query_user
  std::vector<double> kind_ms[kNumOpKinds];
  std::vector<double> kind_dif[kNumOpKinds];
  std::vector<double> kind_topup[kNumOpKinds];
};

ReplayLayers Replay(const gepc::Instance& instance, const gepc::Plan& plan,
                    const std::vector<Step>& trace, const std::string& journal_path,
                    std::vector<Span>* spans, Report* report) {
  ReplayLayers layers;
  std::remove(journal_path.c_str());
  auto planner = gepc::IncrementalPlanner::Create(instance, plan);
  auto journal = gepc::Journal::Open(journal_path);
  if (!planner.ok() || !journal.ok()) {
    report->Fail("replay set-up failed");
    return layers;
  }
  std::shared_ptr<const gepc::ServiceSnapshot> current =
      gepc::MakeServiceSnapshot(planner->instance(), planner->plan(), 0);
  std::vector<double> publish_ms, publish_bytes;
  uint64_t version = 0;
  int64_t op_id = 0;
  for (const Step& step : trace) {
    if (step.type != Step::kWrite) continue;
    ++op_id;
    auto op = gepc::ParseOpSpec(step.spec);
    const Clock::time_point t0 = Clock::now();
    const gepc::Status appended = journal->Append(*op);
    const Clock::time_point t1 = Clock::now();
    auto result = planner->Apply(*op);
    const Clock::time_point t2 = Clock::now();
    const int64_t before = gepc::MemoryTracker::CurrentBytes();
    gepc::MemoryTracker::ResetPeak();
    current = gepc::MakeServiceSnapshot(planner->instance(), planner->plan(), ++version);
    const Clock::time_point t3 = Clock::now();
    publish_bytes.push_back(static_cast<double>(gepc::MemoryTracker::PeakBytes() - before));
    if (!appended.ok() || !result.ok()) {
      report->Fail("replay of " + step.spec + " failed");
      continue;
    }
    const double apply_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    publish_ms.push_back(std::chrono::duration<double, std::milli>(t3 - t2).count());
    layers.kind_ms[step.kind].push_back(apply_ms);
    layers.kind_dif[step.kind].push_back(static_cast<double>(result->negative_impact));
    layers.kind_topup[step.kind].push_back(static_cast<double>(result->added_by_topup));
    spans->push_back({"journal.append", MicrosSinceStart(t0),
                      std::chrono::duration<double, std::micro>(t1 - t0).count(), op_id});
    spans->push_back({std::string("iep.apply.") + OpKindName(step.kind),
                      MicrosSinceStart(t1),
                      std::chrono::duration<double, std::micro>(t2 - t1).count(), op_id});
    spans->push_back({"service.publish", MicrosSinceStart(t2),
                      std::chrono::duration<double, std::micro>(t3 - t2).count(), op_id});
  }
  layers.publish_ms = Mean(publish_ms);
  layers.publish_bytes = Mean(publish_bytes);

  // Snapshot reads through the public service API, on the replayed state.
  auto service = gepc::PlanningService::Create(planner->instance(), planner->plan());
  if (!service.ok()) {
    report->Fail("replay service set-up failed");
    return layers;
  }
  std::vector<double> query_ms;
  for (const Step& step : trace) {
    if (step.type != Step::kQueryUser) continue;
    const Clock::time_point t = Clock::now();
    auto itinerary = (*service)->QueryUser(step.target);
    query_ms.push_back(MsSince(t));
    if (!itinerary.ok()) report->Fail("replay query_user failed");
  }
  (*service)->Shutdown();
  layers.query_user_ms = Mean(query_ms);
  return layers;
}

void ReplayLayerMetrics(const ReplayLayers& layers, Report* report) {
  report->Layer("service.publish_ms", layers.publish_ms, "ms");
  report->Layer("service.publish_alloc_bytes", layers.publish_bytes, "bytes");
  report->Layer("service.query_user_ms", layers.query_user_ms, "ms");
  for (int k = 0; k < kNumOpKinds; ++k) {
    const std::string kind = OpKindName(k);
    report->Layer("iep.apply_ms." + kind, Mean(layers.kind_ms[k]), "ms");
    report->Layer("iep.dif." + kind, Mean(layers.kind_dif[k]), "attendances");
    report->Layer("iep.topup_added." + kind, Mean(layers.kind_topup[k]), "attendances");
  }
}

// ---------------------------------------------------------------------------
// The served phase: gepc_serve --listen with a journal, one client
// ---------------------------------------------------------------------------

/// Value of one exposition sample line ("name value").
double Exposition(const std::string& text, const std::string& name) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, name.size() + 1, name + " ") == 0) {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
  }
  return 0.0;
}

double ExpositionMean(const std::string& text, const std::string& name) {
  const double count = Exposition(text, name + "_count");
  return count > 0 ? Exposition(text, name + "_sum") / count : 0.0;
}

struct ServedResult {
  TraceOutcome run;
  double load_s = 0.0;  // server spawn to ready line
  double peak_rss_bytes = 0.0;
  double final_utility = 0.0;
  std::string metrics_text;      // exposition after the trace (traced runs)
  double read_probe_client_ms = 0.0;
  double read_probe_server_ms = 0.0;
  double journal_bytes_per_op = 0.0;
};

bool Request(WireClient* client, const std::string& line, Json* reply, Report* report) {
  std::string text;
  if (!client->Request(line, &text) || !Json::Parse(text, reply) || !reply->Bool("ok")) {
    report->Fail("control request failed: " + line + " -> " + text);
    return false;
  }
  return true;
}

/// How one served pass runs.
struct PassPlan {
  int cpu = 0;          ///< CpuPin index for the server and the client
  bool spans = false;  ///< traced run: client-side spans
  bool probe = false;  ///< traced run: read probe and exposition
};

/// The server's input files, written once for all passes of a run.
class ServerInputs {
 public:
  ServerInputs(const Args& args, const std::string& tag, const gepc::Instance& instance,
               const gepc::Plan& plan, Report* report)
      : instance_path(args.out + "/" + tag + ".gepc"), plan_path(args.out + "/" + tag + ".gpln") {
    if (!gepc::SaveInstanceToFile(instance, instance_path).ok() ||
        !gepc::SavePlanToFile(plan, plan_path).ok()) {
      report->Fail("cannot write the server's input files under " + args.out);
    }
  }
  ~ServerInputs() {
    std::remove(instance_path.c_str());
    std::remove(plan_path.c_str());
  }
  ServerInputs(const ServerInputs&) = delete;
  ServerInputs& operator=(const ServerInputs&) = delete;

  const std::string instance_path, plan_path;
};

/// Starts gepc_serve on the inputs (`plan` is the plan written there), runs
/// the trace, checks the final state and shuts the server down.
/// `solved_utility` is SolveGepc's result for that plan.
ServedResult Serve(const Args& args, const std::string& tag, const ServerInputs& inputs,
                   Model model, const gepc::Plan& plan, double solved_utility,
                   const std::vector<Step>& trace, const PassPlan& pass, Report* report) {
  ServedResult served;
  const bool probe = pass.probe;
  const CpuPin pin(pass.cpu);
  const std::string base = args.out + "/" + tag;
  const std::string& instance_path = inputs.instance_path;
  const std::string& plan_path = inputs.plan_path;
  const std::string journal_path = base + ".gops";
  const std::string final_plan_path = base + "-final.gpln";
  std::remove(journal_path.c_str());
  // Net workers fixed: one read worker, one op worker (plus the event loop
  // and the service's writer thread).
  std::vector<std::string> argv = {args.serve,  "--in",      instance_path,
                                   "--plan",    plan_path,  "--journal",
                                   journal_path, "--listen", "127.0.0.1:0",
                                   "--net-read-workers", "1", "--net-op-workers", "1"};
  ServerProcess server;
  Json ready;
  std::string error;
  const Clock::time_point spawned = Clock::now();
  if (!server.Start(argv, base + "-server.log", 150.0, &ready, &error)) {
    report->Fail(error);
    return served;
  }
  served.load_s = Since(spawned);
  std::fprintf(stderr, "perfbench: %s ready, server load %.2f s\n", tag.c_str(),
               served.load_s);

  WireClient client;
  if (!client.Connect(static_cast<int>(ready.Num("port")), &error)) {
    report->Fail(error);
    return served;
  }
  // The initial plan: SolveGepc's utility, the ready line's and the
  // checker's recomputation agree.
  const PlanCheck initial = CheckPlan(model, RowsOf(plan));
  if (!initial.feasible) report->Fail("initial plan infeasible: " + initial.violation);
  if (!Close(initial.utility, solved_utility) ||
      !Close(ready.Num("utility"), solved_utility)) {
    report->Fail("initial utility: SolveGepc, ready line and checker disagree");
  }

  served.run = RunServedTrace(trace, &model, &client, pass.spans, report);

  Json stats, saved, reply;
  if (Request(&client, "{\"cmd\":\"stats\"}", &stats, report)) {
    const double applied = stats.Num("ops_applied");
    served.journal_bytes_per_op = applied > 0 ? stats.Num("journal_bytes") / applied : 0.0;
  }
  if (probe) {
    // Read probe: the server's request time for reads alone, next to the
    // client's, gives the transport overhead. The `before` metrics request
    // completes after its own rendering, so it lands in the difference;
    // its client-side time bounds its server time and is taken out.
    Json before, after;
    const Clock::time_point asked = Clock::now();
    Request(&client, "{\"cmd\":\"metrics\"}", &before, report);
    const double before_ms = MsSince(asked);
    std::vector<double> probe_ms;
    std::string text;
    for (const Step& step : trace) {
      if (step.type != Step::kQueryUser || probe_ms.size() >= 1000) continue;
      const Clock::time_point t = Clock::now();
      if (!client.Request("{\"cmd\":\"query_user\",\"user\":" +
                              std::to_string(step.target) + "}",
                          &text)) {
        report->Fail("probe read failed");
        break;
      }
      probe_ms.push_back(MsSince(t));
    }
    Request(&client, "{\"cmd\":\"metrics\"}", &after, report);
    const std::string& a = after.Str("metrics");
    const std::string& b = before.Str("metrics");
    const double count = Exposition(a, "gepc_net_request_ms_count") -
                         Exposition(b, "gepc_net_request_ms_count") - 1;
    const double sum = Exposition(a, "gepc_net_request_ms_sum") -
                       Exposition(b, "gepc_net_request_ms_sum") - before_ms;
    served.read_probe_server_ms = count > 0 ? sum / count : 0.0;
    served.read_probe_client_ms = Mean(probe_ms);
    served.metrics_text = b;
  }
  if (Request(&client, "{\"cmd\":\"save_plan\",\"path\":\"" + final_plan_path + "\"}",
              &saved, report)) {
    PlanRows final_plan;
    if (!LoadPlanRows(final_plan_path, model.users, model.events, &final_plan, &error)) {
      report->Fail(error);
    } else {
      CheckFinalPlan(model, final_plan, served.run, report, &served.final_utility);
    }
  }
  served.peak_rss_bytes = static_cast<double>(server.PeakRssBytes());
  std::string bye;
  client.Request("{\"cmd\":\"shutdown\"}", &bye);
  client.Close();
  if (!server.WaitExit(60.0)) report->Fail("server did not exit cleanly");

  // Journal rows equal the applied writes.
  std::ifstream journal(journal_path);
  std::string line;
  int64_t rows = -1;  // the header line
  while (std::getline(journal, line)) {
    if (!line.empty()) ++rows;
  }
  if (rows != served.run.applied) {
    report->Fail("journal holds " + std::to_string(rows) + " rows for " +
                 std::to_string(served.run.applied) + " applied writes");
  }
  std::remove(journal_path.c_str());
  std::remove(final_plan_path.c_str());
  return served;
}

void ServedLayers(const ServedResult& served, Report* report) {
  const std::string& m = served.metrics_text;
  report->Layer("service.queue_wait_ms", ExpositionMean(m, "gepc_service_queue_wait_ms"), "ms");
  report->Layer("service.apply_ms", ExpositionMean(m, "gepc_service_apply_ms"), "ms");
  report->Layer("journal.append_ms", ExpositionMean(m, "gepc_journal_append_ms"), "ms");
  report->Layer("journal.flush_ms", ExpositionMean(m, "gepc_journal_flush_ms"), "ms");
  report->Layer("journal.bytes_per_op", served.journal_bytes_per_op, "bytes");
  report->Layer("net.request_ms", ExpositionMean(m, "gepc_net_request_ms"), "ms");
  report->Layer("net.client_overhead_ms",
                served.read_probe_client_ms - served.read_probe_server_ms, "ms");
  report->Layer("trace.write_mean_ms", Mean(served.run.write_ms), "ms");
}

/// The share of the client's mean write latency that the layers account
/// for: queue wait + apply (journal append included) + publish + the
/// transport overhead measured on reads.
void Accounting(const ServedResult& served, const ReplayLayers& layers, Report* report) {
  const std::string& m = served.metrics_text;
  const double parts = ExpositionMean(m, "gepc_service_queue_wait_ms") +
                       ExpositionMean(m, "gepc_service_apply_ms") + layers.publish_ms +
                       (served.read_probe_client_ms - served.read_probe_server_ms);
  const double write_mean = Mean(served.run.write_ms);
  report->Layer("trace.write_accounted_pct",
                write_mean > 0 ? 100.0 * parts / write_mean : 0.0, "%");
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// plan-cities runs its solves this many times, spread over the run; each
/// solve reports its fastest run.
constexpr int kPlanReps = 5;
/// In-process passes of the Singapore trace per repetition.
constexpr int kPassesPerRep = 2;

struct ServeShape {
  std::function<gepc::Instance()> make;
  double rounds_per_second;
  int reads_per_round;
  /// Identical served passes per run (the trace's rounds are split evenly),
  /// each from a fresh server on another CPU.
  int passes;
  /// gap_solve_s: a what-if GAP re-plan of a fixed cut-out of the instance,
  /// fastest of gap_reps runs. greedy_solve_s: the greedy solve of the
  /// served instance, fastest of greedy_reps runs (the first gives the
  /// served plan).
  int cut_users, cut_events, gap_reps, greedy_reps;
  /// Traced runs exercise the sharded engine on the whole instance when it
  /// is spatially local; on a city whose budgets span the map nearly every
  /// user is a boundary user, so they shard the cut-out instead.
  bool shard_whole;
};

void RunServeWorkload(const Args& args, const std::string& tag, const ServeShape& shape,
                      Report* report) {
  const gepc::Instance instance = shape.make();
  const double generate_s = Since(kProcessStart);
  const Model model = Model::FromInstance(instance);

  // The served plan is SolveGepc's greedy result, handed to the server.
  int cpu_turn = 0;  // rotates single-threaded timed work over the CPUs
  gepc::GepcResult greedy;
  std::vector<double> greedy_s = {TimedSolve(instance, GreedyOptions(), cpu_turn++, &greedy)};
  CheckSolve(tag + " greedy", model, greedy, report);
  ++report->attempted;

  const int rounds = std::max(1, static_cast<int>(std::lround(
                                     shape.rounds_per_second * args.seconds / shape.passes)));
  const std::vector<Step> trace =
      GenerateTrace(model, args.seed, rounds, shape.reads_per_round);

  // The offline solves run between the passes, with no server up; each
  // pass is followed by its share of them, so they are spread over the run.
  gepc::Rng cut_rng(7);
  const gepc::Instance cut = gepc::CutOut(instance, shape.cut_users, shape.cut_events, &cut_rng);
  std::vector<double> gap_s;
  auto offline_solves = [&](int p) {
    const int gap_end = shape.gap_reps * (p + 1) / shape.passes;
    const int greedy_end = 1 + (shape.greedy_reps - 1) * (p + 1) / shape.passes;
    while (static_cast<int>(gap_s.size()) < gap_end) {
      gepc::GepcResult gap;
      gap_s.push_back(TimedSolve(cut, GapOptions(), cpu_turn++, &gap));
      if (gap_s.size() == 1) CheckSolve(tag + " gap cut-out", Model::FromInstance(cut), gap, report);
      ++report->attempted;
    }
    while (static_cast<int>(greedy_s.size()) < greedy_end) {
      gepc::GepcResult again;
      greedy_s.push_back(TimedSolve(instance, GreedyOptions(), cpu_turn++, &again));
      if (again.total_utility != greedy.total_utility) {
        report->Fail(tag + ": repeated greedy solve gave a different plan utility");
      }
      ++report->attempted;
    }
  };

  // Served passes, a fresh server each.
  const ServerInputs inputs(args, tag, instance, greedy.plan, report);
  std::vector<ServedResult> served;
  std::vector<TraceOutcome> passes;
  for (int p = 0; p < shape.passes; ++p) {
    PassPlan pass;
    pass.cpu = p;
    pass.spans = args.trace;
    pass.probe = args.trace && p + 1 == shape.passes;
    served.push_back(Serve(args, tag, inputs, model, greedy.plan, greedy.total_utility, trace,
                           pass, report));
    passes.push_back(served.back().run);
    report->attempted += static_cast<int64_t>(trace.size());
    report->failed += served.back().run.failed;
    if (served.back().final_utility != served.front().final_utility) {
      report->Fail(tag + ": identical passes ended in different plans");
    }
    offline_solves(p);
  }
  double peak_rss_bytes = 0.0, load_s = kNotRun;
  for (const ServedResult& pass : served) {
    peak_rss_bytes = std::max(peak_rss_bytes, pass.peak_rss_bytes);
    load_s = std::min(load_s, pass.load_s);
  }

  const TraceFigures figures = Fastest(trace, passes, report);
  // The program's set-up: instance generation from the process's start,
  // and the server's load to its ready line (the fastest of the passes'
  // cold starts).
  report->E2e("setup_s", generate_s + load_s, "s");
  TraceE2e(figures, report);
  report->E2e("gap_solve_s", *std::min_element(gap_s.begin(), gap_s.end()), "s");
  report->E2e("greedy_solve_s", *std::min_element(greedy_s.begin(), greedy_s.end()), "s");
  report->E2e("plan_utility", served.front().final_utility, "utility");
  report->E2e("iep_dif_total", static_cast<double>(served.front().run.dif_total),
              "attendances");
  report->E2e("peak_rss_mb", peak_rss_bytes / (1024.0 * 1024.0), "MB");

  if (!args.trace) return;
  std::vector<Span> spans = served.back().run.spans;
  gepc::ShardedGepcOptions sharded;
  sharded.shards = 8;
  sharded.threads = 2;
  sharded.gepc = GreedyOptions();
  if (!gepc::SolveSharded(shape.shard_whole ? instance : cut, sharded).ok()) {
    report->Fail("sharded solve failed");
  }
  const ReplayLayers layers = Replay(instance, greedy.plan, trace,
                                     args.out + "/" + tag + "-replay.gops", &spans, report);
  std::remove((args.out + "/" + tag + "-replay.gops").c_str());
  WriteSpans(args.out + "/" + tag + "-spans.json", spans);
  report->Layer("data.generate_s", generate_s, "s");
  report->Layer("service.load_s", load_s, "s");
  ServedLayers(served.back(), report);
  // Computed as requests_per_s is, every pass of a traced run recording
  // spans: the two differ by the tracing overhead.
  report->Layer("trace.requests_per_s", figures.requests_per_s, "1/s");
  ReplayLayerMetrics(layers, report);
  Accounting(served.back(), layers, report);
  SolverLayers(report);
}

void RunPlanCities(const Args& args, Report* report) {
  const Clock::time_point t = Clock::now();
  const std::vector<std::string> names = {"Beijing", "Vancouver", "Auckland", "Singapore"};
  std::map<std::string, gepc::Instance> cities;
  for (const std::string& name : names) cities[name] = MakeCity(name);
  const gepc::Instance big = Make50k();
  const double generate_s = Since(t);
  const double setup_s = Since(kProcessStart);

  // Tables VII-IX in process: the seeded op trace on Singapore through
  // IncrementalPlanner, with no service, journal, network or publish, in
  // identical passes from the same start plan, kPassesPerRep after each
  // repetition of the solves.
  const gepc::Instance& iep_city = cities["Singapore"];
  gepc::GepcResult start;
  TimedSolve(iep_city, GreedyOptions(), 0, &start);
  const Model iep_model = Model::FromInstance(iep_city);
  const int rounds = std::max(1, 7 * args.seconds / kPlanReps);
  const std::vector<Step> trace = GenerateTrace(iep_model, args.seed, rounds, 320);

  // Table VI: GAP-based and greedy solves, the repetitions spread over the
  // run between the passes; each solve's fastest time counts. Vancouver's
  // GAP solve (the MWU path) is left out of the timed set: it is the
  // slowest and least steady solve and would dominate.
  const std::vector<std::string> gap_set = {"Beijing", "Auckland", "Singapore"};
  std::map<std::string, std::vector<double>> times;
  std::map<std::string, double> utility;
  // The 50k plans are checked after peak_rss_mb is read: the checker's
  // dense copy of the 50k instance is the benchmark's memory, not the
  // program's.
  std::vector<std::pair<std::string, gepc::GepcResult>> unchecked_50k;
  auto record = [&](const std::string& key, const gepc::Instance& instance,
                    const gepc::GepcResult& result, double seconds) {
    times[key].push_back(seconds);
    if (times[key].size() == 1) {
      if (&instance == &big) {
        unchecked_50k.push_back({key, result});
      } else {
        CheckSolve(key, Model::FromInstance(instance), result, report);
      }
      utility[key] = result.total_utility;
    } else if (result.total_utility != utility[key]) {
      report->Fail(key + ": repeated solve gave a different plan utility");
    }
    ++report->attempted;
  };
  std::vector<TraceOutcome> passes;
  double final_utility = 0.0;
  gepc::GepcResult result;
  // Single-threaded work rotates over the CPUs, one CPU per repetition.
  for (int rep = 0; rep < kPlanReps; ++rep) {
    for (const std::string& name : gap_set) {
      record("gap " + name, cities[name], result,
             TimedSolve(cities[name], GapOptions(), rep, &result));
    }
    for (const std::string& name : names) {
      record("greedy " + name, cities[name], result,
             TimedSolve(cities[name], GreedyOptions(), rep, &result));
    }
    record("greedy 50k", big, result, TimedSolve(big, GreedyOptions(), rep, &result));
    gepc::ShardedGepcOptions sharded;
    sharded.shards = 8;
    sharded.threads = 2;
    sharded.gepc = GreedyOptions();
    const Clock::time_point s = Clock::now();
    auto split = gepc::SolveSharded(big, sharded);
    const double split_s = Since(s);
    if (!split.ok()) {
      report->Fail("sharded solve failed");
    } else {
      record("sharded 50k", big, *split, split_s);
    }

    for (int p = 0; p < kPassesPerRep; ++p) {
      Model model = iep_model;
      auto planner = gepc::IncrementalPlanner::Create(iep_city, start.plan);
      const CpuPin pin(rep);
      passes.push_back(RunInProcessTrace(trace, &model, &*planner, report));
      report->attempted += static_cast<int64_t>(trace.size());
      report->failed += passes.back().failed;
      CheckFinalPlan(model, RowsOf(planner->plan()), passes.back(), report, &final_utility);
    }
  }
  const double peak_rss_mb = static_cast<double>(OwnPeakRssBytes()) / (1024.0 * 1024.0);
  for (const auto& [key, solved] : unchecked_50k) {
    CheckSolve(key, Model::FromInstance(big), solved, report);
  }
  double gap_s = 0.0, greedy_s = 0.0, plan_utility = 0.0;
  for (const auto& [key, values] : times) {
    (key.rfind("gap ", 0) == 0 ? gap_s : greedy_s) +=
        *std::min_element(values.begin(), values.end());
    plan_utility += utility[key];
  }

  report->E2e("setup_s", setup_s, "s");
  TraceE2e(Fastest(trace, passes, report), report);
  report->E2e("gap_solve_s", gap_s, "s");
  report->E2e("greedy_solve_s", greedy_s, "s");
  report->E2e("plan_utility", plan_utility + final_utility, "utility");
  report->E2e("iep_dif_total", static_cast<double>(passes.front().dif_total), "attendances");
  report->E2e("peak_rss_mb", peak_rss_mb, "MB");

  if (!args.trace) return;
  // The service-side layers of the same Singapore trace: served once, and
  // replayed through the public service calls.
  PassPlan pass;
  pass.spans = true;
  pass.probe = true;
  const ServerInputs inputs(args, "plan-cities", iep_city, start.plan, report);
  ServedResult served = Serve(args, "plan-cities", inputs, iep_model, start.plan,
                              start.total_utility, trace, pass, report);
  std::vector<Span> spans = served.run.spans;
  const ReplayLayers layers = Replay(iep_city, start.plan, trace,
                                     args.out + "/plan-cities-replay.gops", &spans, report);
  std::remove((args.out + "/plan-cities-replay.gops").c_str());
  WriteSpans(args.out + "/plan-cities-spans.json", spans);
  report->Layer("data.generate_s", generate_s, "s");
  report->Layer("service.load_s", served.load_s, "s");
  ServedLayers(served, report);
  report->Layer("trace.requests_per_s", Fastest(trace, {served.run}, report).requests_per_s,
                "1/s");
  ReplayLayerMetrics(layers, report);
  Accounting(served, layers, report);
  SolverLayers(report);
}

void PrintReport(Report& report, bool trace) {
  for (const auto& metric : trace ? report.layers : report.end_to_end) {
    if (!std::isfinite(metric.second.first)) report.Fail(metric.first + " is not finite");
  }
  const auto& metrics = trace ? report.layers : report.end_to_end;
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    // A metric that could not be measured (a run cut short) prints as 0
    // with correct=false rather than as a non-JSON nan/inf.
    const double v = std::isfinite(metrics[i].second.first) ? metrics[i].second.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].first + "\": {\"value\": " + value + ", \"unit\": \"" +
           metrics[i].second.second + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload serve-50k|serve-vancouver|plan-cities\n"
               "                        --seed N --seconds S --trace 0|1\n"
               "                        --out DIR --serve GEPC_SERVE\n");
  return 64;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::max(1, std::atoi(value.c_str()));
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--serve") {
      args.serve = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) return Usage();

  Report report;
  std::string why;
  if (!SelfTest(&why)) report.Fail(why);

  if (args.workload == "serve-50k") {
    // Publish copies the whole 50k x 200 state per write; eta increases
    // re-offer every user (about a second each), one per round.
    RunServeWorkload(args, "serve-50k", {Make50k, 0.9, 336, 2, 1000, 80, 6, 5, true},
                     &report);
  } else if (args.workload == "serve-vancouver") {
    RunServeWorkload(args, "serve-vancouver",
                     {[] { return MakeCity("Vancouver"); }, 15.0, 40, 6, 300, 24, 12, 5, false},
                     &report);
  } else if (args.workload == "plan-cities") {
    RunPlanCities(args, &report);
  } else {
    return Usage();
  }
  PrintReport(report, args.trace);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
