// Correctness checker written apart from the program: it keeps its own copy
// of the instance, applies each traced op to it with its own code, and
// re-derives feasibility, utilities and itineraries from coordinates. It
// calls no validator of the program (core/feasibility, itinerary, ...).
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/instance.h"
#include "json.h"

namespace perfbench {

/// The checker's own copy of an instance: plain arrays, dense utilities.
struct Model {
  int users = 0;
  int events = 0;
  std::vector<double> ux, uy, budget;
  std::vector<double> ex, ey, fee;
  std::vector<int> xi, eta, start, end;
  std::vector<double> mu;  // users x events, row-major

  static Model FromInstance(const gepc::Instance& instance);
  double Utility(int u, int e) const {
    return mu[static_cast<size_t>(u) * static_cast<size_t>(events) +
              static_cast<size_t>(e)];
  }
  bool Conflict(int a, int b) const {
    return !(end[a] < start[b] || end[b] < start[a]);
  }
  /// Applies one compact op spec ("eta:3:10", ...) with the service's
  /// semantics: eta/xi changes clamp the other bound.
  bool ApplySpec(const std::string& spec, std::string* error);
  /// Tour length (plus fees) of user u visiting `events` in start order.
  double TourCost(int u, std::vector<int> events) const;
};

/// A plan as the checker sees it: the events of each user.
using PlanRows = std::vector<std::vector<int>>;

/// Reads a GPLN1 plan file.
bool LoadPlanRows(const std::string& path, int users, int events,
                  PlanRows* plan, std::string* error);

struct PlanCheck {
  bool feasible = false;
  std::string violation;
  double utility = 0.0;
  int below_xi = 0;
  int64_t assignments = 0;
};

/// Checks time conflicts, budgets (recomputed tours) and capacities, and
/// recomputes utility and the below-xi count.
PlanCheck CheckPlan(const Model& model, const PlanRows& plan);

/// Checks one query_user reply against the model: stops in start order and
/// pairwise conflict-free, every leg and the total travel equal to the
/// recomputed tour, utility equal to the sum of the stops' utilities.
bool CheckItineraryReply(const Model& model, int user, const Json& reply,
                         std::string* error);

/// Checks one query_event reply against the model's bounds and times.
bool CheckEventReply(const Model& model, int event, const Json& reply,
                     std::string* error);

/// Relative comparison used for every recomputed float.
bool Close(double a, double b, double rel = 1e-9, double abs = 1e-6);

/// Shows that the checker rejects a corrupted plan and corrupted replies on
/// a small hand-made instance. Returns false (with a reason) if it does not.
bool SelfTest(std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
