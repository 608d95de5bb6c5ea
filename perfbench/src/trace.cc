#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>

namespace perfbench {

const char* OpKindName(int kind) {
  static const char* const kNames[kNumOpKinds] = {
      "eta_dec", "xi_inc", "eta_inc", "xi_dec",
      "time",    "loc",    "mu",      "budget"};
  return kind >= 0 && kind < kNumOpKinds ? kNames[kind] : "?";
}

namespace {

/// Small deterministic generator (SplitMix64) owned by the benchmark, so a
/// change to the program's Rng cannot change the inputs.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

 private:
  uint64_t state_;
};

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::vector<Step> GenerateTrace(const Model& start, uint64_t seed, int rounds,
                                int reads_per_round) {
  Model model = start;  // mutated as the trace goes, like the server's
  SplitMix rng(seed * 0x2545f4914f6cdd1dULL + 0x7b);
  std::vector<Step> trace;
  const int extra_reads = std::max(0, reads_per_round - 4);
  auto add_reads = [&](int count) {
    for (int r = 0; r < count; ++r) {
      Step read;
      // gepc_bots' read mix: 80% itineraries, 20% event views.
      if (rng.Below(100) < 80) {
        read.type = Step::kQueryUser;
        read.target = rng.Below(model.users);
      } else {
        read.type = Step::kQueryEvent;
        read.target = rng.Below(model.events);
      }
      trace.push_back(read);
    }
  };
  auto add_write = [&](int kind, std::string spec, int pre_read_event) {
    if (pre_read_event >= 0) {
      Step read;
      read.type = Step::kQueryEvent;
      read.target = pre_read_event;
      read.pre_read = true;
      trace.push_back(read);
    }
    Step write;
    write.type = Step::kWrite;
    write.kind = kind;
    write.spec = spec;
    std::string ignored;
    model.ApplySpec(spec, &ignored);
    trace.push_back(write);
  };

  // The eta decrease removes about an event's whole attendance, so which
  // events a trace cuts decides most of its dif. Each round takes the middle
  // event of one stratum of the events ordered by a prediction of
  // attendance, the strata visited in a seeded order: every trace cuts the
  // same mix of small and large events, and the seed decides the order. The prediction is the event's capacity, capped by its expected
  // demand: each user spreads one unit of demand over the events it could
  // reach alone, in proportion to their utility.
  std::vector<int> by_size(static_cast<size_t>(model.events));
  std::vector<double> demand(static_cast<size_t>(model.events), 0.0);
  std::vector<int> reachable;
  for (int u = 0; u < model.users; ++u) {
    reachable.clear();
    double total = 0.0;
    for (int e = 0; e < model.events; ++e) {
      const double trip = 2.0 * std::hypot(model.ux[u] - model.ex[e], model.uy[u] - model.ey[e]);
      if (model.Utility(u, e) > 0.0 && trip + model.fee[e] <= model.budget[u]) {
        reachable.push_back(e);
        total += model.Utility(u, e);
      }
    }
    for (int e : reachable) demand[static_cast<size_t>(e)] += model.Utility(u, e) / total;
  }
  std::vector<double> predicted(static_cast<size_t>(model.events));
  for (int e = 0; e < model.events; ++e) {
    const size_t i = static_cast<size_t>(e);
    by_size[i] = e;
    predicted[i] = std::min<double>(model.eta[e], demand[i]);
  }
  std::stable_sort(by_size.begin(), by_size.end(), [&](int a, int b) {
    return predicted[static_cast<size_t>(a)] < predicted[static_cast<size_t>(b)];
  });
  std::vector<int> stratum_of_round(static_cast<size_t>(rounds));
  for (int r = 0; r < rounds; ++r) stratum_of_round[static_cast<size_t>(r)] = r;
  for (int r = rounds - 1; r > 0; --r) {
    std::swap(stratum_of_round[static_cast<size_t>(r)],
              stratum_of_round[static_cast<size_t>(rng.Below(r + 1))]);
  }

  for (int round = 0; round < rounds; ++round) {
    // Bound ops on one event with xi >= 1. Cutting eta to xi - 1 is below
    // the attendance of any event that meets its lower bound, so the op is
    // Alg. 3 and leaves exactly xi - 1 attendees; raising xi back by one is
    // then an Alg. 4 repair of a one-attendee deficit.
    const int k = stratum_of_round[static_cast<size_t>(round)];
    const int lo = static_cast<int>(static_cast<int64_t>(k) * model.events / rounds);
    const int hi = std::max(lo + 1, static_cast<int>(static_cast<int64_t>(k + 1) *
                                                     model.events / rounds));
    std::vector<int> eligible;
    for (int i = lo; i < hi && i < model.events; ++i) {
      if (model.xi[by_size[static_cast<size_t>(i)]] >= 1) {
        eligible.push_back(by_size[static_cast<size_t>(i)]);
      }
    }
    if (eligible.empty()) {
      for (int e = 0; e < model.events; ++e) {
        if (model.xi[e] >= 1) eligible.push_back(e);
      }
    }
    const int j = eligible.empty() ? rng.Below(model.events) : eligible[eligible.size() / 2];
    const int x = std::max(1, model.xi[j]);
    const int restore = start.eta[j] > x ? start.eta[j] : x + 1;
    const std::string e = std::to_string(j);

    // One user loses interest in, or newly likes, one event.
    auto mu = [&] {
      const int u = rng.Below(model.users);
      const int ue = rng.Below(model.events);
      const double value = rng.Below(2) == 0 ? 0.0 : rng.Uniform(0.05, 1.0);
      add_write(kMu, "mu:" + std::to_string(u) + ":" + std::to_string(ue) + ":" + Num(value),
                -1);
    };
    // One user's travel budget changes by up to 40% either way.
    auto budget = [&] {
      const int b = rng.Below(model.users);
      add_write(kBudget,
                "budget:" + std::to_string(b) + ":" + Num(model.budget[b] * rng.Uniform(0.6, 1.4)),
                -1);
    };
    // Reschedule one event by 15-60 minutes either way.
    auto time = [&] {
      const int t = rng.Below(model.events);
      const int shift = (rng.Below(2) == 0 ? -1 : 1) * (15 + rng.Below(46));
      const int duration = model.end[t] - model.start[t];
      const int new_start = std::max(0, model.start[t] + shift);
      add_write(kTime,
                "time:" + std::to_string(t) + ":" + std::to_string(new_start) + ":" +
                    std::to_string(new_start + duration),
                -1);
    };
    // Move one event a few units.
    auto loc = [&] {
      const int l = rng.Below(model.events);
      add_write(kLoc,
                "loc:" + std::to_string(l) + ":" + Num(model.ex[l] + rng.Uniform(-3.0, 3.0)) +
                    ":" + Num(model.ey[l] + rng.Uniform(-3.0, 3.0)),
                -1);
    };
    // Twelve writes a round. The four kinds gepc_bots sends keep its default
    // shares (tools/gepc_bots.cc: 40% mu, 20% budget, 20% eta, 20% xi), its
    // eta and xi shares split evenly between the two directions; time and
    // loc, which it never sends, are a stratum of one write each.
    const std::vector<std::function<void()>> writes = {
        [&] { add_write(kEtaDec, "eta:" + e + ":" + std::to_string(x - 1), j); },
        mu,
        [&] { add_write(kXiInc, "xi:" + e + ":" + std::to_string(x), j); },
        mu,
        budget,
        [&] { add_write(kEtaInc, "eta:" + e + ":" + std::to_string(restore), j); },
        time,
        mu,
        [&] { add_write(kXiDec, "xi:" + e + ":" + std::to_string(x - 1), j); },
        loc,
        mu,
        budget};
    // The extra reads spread evenly over the gaps after each write.
    const int gaps = static_cast<int>(writes.size());
    for (int w = 0; w < gaps; ++w) {
      writes[static_cast<size_t>(w)]();
      add_reads(extra_reads * (w + 1) / gaps - extra_reads * w / gaps);
    }
  }
  return trace;
}

}  // namespace perfbench
