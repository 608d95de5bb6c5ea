// Seeded op traces. A trace is generated before a run from the seed and the
// instance alone (as the trace itself mutates it), never from a server
// reply, so every version of the program receives byte-identical requests.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "checker.h"

namespace perfbench {

/// The eight op kinds a round exercises, after the paper's reductions:
/// eta decreased (Alg. 3), xi increased (Alg. 4), eta increased (re-offer),
/// xi decreased (no repair), time changed (Alg. 5), location changed,
/// utility changed, budget changed. The wire accepts six atomic ops; eta
/// and xi each appear in both directions.
enum OpKind {
  kEtaDec,
  kXiInc,
  kEtaInc,
  kXiDec,
  kTime,
  kLoc,
  kMu,
  kBudget,
  kNumOpKinds
};
const char* OpKindName(int kind);

struct Step {
  enum Type { kWrite, kQueryUser, kQueryEvent };
  Type type = kQueryUser;
  int target = 0;    ///< user for kQueryUser, event for kQueryEvent
  int kind = -1;     ///< OpKind for writes
  std::string spec;  ///< compact op spec for writes
  /// For eta/xi writes: the query_event step just before reads the event's
  /// attendance, which the checker needs for the op's dif property.
  bool pre_read = false;
};

/// Whole rounds of 12 writes (four mu, two budget, one of each other OpKind)
/// and `reads_per_round` reads (80% query_user, 20% query_event).
/// `model` is the instance the trace starts from; it is not modified.
std::vector<Step> GenerateTrace(const Model& model, uint64_t seed, int rounds,
                                int reads_per_round);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
