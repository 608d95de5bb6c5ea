#include "checker.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

Model Model::FromInstance(const gepc::Instance& instance) {
  Model m;
  m.users = instance.num_users();
  m.events = instance.num_events();
  for (const gepc::User& u : instance.users()) {
    m.ux.push_back(u.location.x);
    m.uy.push_back(u.location.y);
    m.budget.push_back(u.budget);
  }
  for (const gepc::Event& e : instance.events()) {
    m.ex.push_back(e.location.x);
    m.ey.push_back(e.location.y);
    m.fee.push_back(e.fee);
    m.xi.push_back(e.lower_bound);
    m.eta.push_back(e.upper_bound);
    m.start.push_back(e.time.start);
    m.end.push_back(e.time.end);
  }
  m.mu.resize(static_cast<size_t>(m.users) * static_cast<size_t>(m.events));
  for (int u = 0; u < m.users; ++u) {
    for (int e = 0; e < m.events; ++e) {
      m.mu[static_cast<size_t>(u) * static_cast<size_t>(m.events) +
           static_cast<size_t>(e)] = instance.utility(u, e);
    }
  }
  return m;
}

namespace {

std::vector<std::string> Split(const std::string& spec) {
  std::vector<std::string> out;
  std::stringstream in(spec);
  std::string field;
  while (std::getline(in, field, ':')) out.push_back(field);
  return out;
}

double Dist(double ax, double ay, double bx, double by) {
  return std::hypot(ax - bx, ay - by);
}

}  // namespace

bool Model::ApplySpec(const std::string& spec, std::string* error) {
  const std::vector<std::string> f = Split(spec);
  auto num = [&](size_t i) { return std::strtod(f[i].c_str(), nullptr); };
  auto idx = [&](size_t i) { return std::atoi(f[i].c_str()); };
  const std::string kind = f.empty() ? "" : f[0];
  const size_t want = kind == "eta" || kind == "xi" || kind == "budget" ? 3
                      : kind == "time" || kind == "loc" || kind == "mu" ? 4
                                                                          : 0;
  if (want == 0 || f.size() != want) {
    *error = "checker cannot model op '" + spec + "'";
    return false;
  }
  if (kind == "eta") {
    const int e = idx(1), v = idx(2);
    eta[e] = v;
    xi[e] = std::min(xi[e], v);
  } else if (kind == "xi") {
    const int e = idx(1), v = idx(2);
    xi[e] = v;
    eta[e] = std::max(eta[e], v);
  } else if (kind == "budget") {
    budget[idx(1)] = num(2);
  } else if (kind == "time") {
    start[idx(1)] = idx(2);
    end[idx(1)] = idx(3);
  } else if (kind == "loc") {
    ex[idx(1)] = num(2);
    ey[idx(1)] = num(3);
  } else {
    mu[static_cast<size_t>(idx(1)) * static_cast<size_t>(events) +
       static_cast<size_t>(idx(2))] = num(3);
  }
  return true;
}

double Model::TourCost(int u, std::vector<int> evs) const {
  if (evs.empty()) return 0.0;
  std::sort(evs.begin(), evs.end(), [&](int a, int b) {
    if (start[a] != start[b]) return start[a] < start[b];
    if (end[a] != end[b]) return end[a] < end[b];
    return a < b;
  });
  double cost = Dist(ux[u], uy[u], ex[evs.front()], ey[evs.front()]);
  for (size_t k = 0; k + 1 < evs.size(); ++k) {
    cost += Dist(ex[evs[k]], ey[evs[k]], ex[evs[k + 1]], ey[evs[k + 1]]);
  }
  cost += Dist(ux[u], uy[u], ex[evs.back()], ey[evs.back()]);
  for (int e : evs) cost += fee[e];
  return cost;
}

bool Close(double a, double b, double rel, double abs) {
  return std::fabs(a - b) <= std::max(abs, rel * std::max(std::fabs(a), std::fabs(b)));
}

bool LoadPlanRows(const std::string& path, int users, int events,
                  PlanRows* plan, std::string* error) {
  std::ifstream in(path);
  std::string magic;
  int n = -1, m = -1;
  if (!(in >> magic >> n >> m) || magic != "GPLN1" || n != users ||
      m != events) {
    *error = "plan file " + path + " has a bad header";
    return false;
  }
  plan->assign(static_cast<size_t>(users), {});
  std::string tag;
  while (in >> tag) {
    if (tag[0] == '#') {
      std::getline(in, tag);
      continue;
    }
    int u = -1, e = -1;
    if (tag != "p" || !(in >> u >> e) || u < 0 || u >= users || e < 0 ||
        e >= events) {
      *error = "plan file " + path + " has a bad row";
      return false;
    }
    (*plan)[static_cast<size_t>(u)].push_back(e);
  }
  return true;
}

PlanCheck CheckPlan(const Model& model, const PlanRows& plan) {
  PlanCheck check;
  std::vector<int> attendance(static_cast<size_t>(model.events), 0);
  for (int u = 0; u < model.users; ++u) {
    const std::vector<int>& evs = plan[static_cast<size_t>(u)];
    for (size_t a = 0; a < evs.size(); ++a) {
      ++attendance[static_cast<size_t>(evs[a])];
      check.utility += model.Utility(u, evs[a]);
      for (size_t b = a + 1; b < evs.size(); ++b) {
        if (evs[a] == evs[b] || model.Conflict(evs[a], evs[b])) {
          check.violation = "user " + std::to_string(u) + " attends " +
                            std::to_string(evs[a]) + " and " +
                            std::to_string(evs[b]) + ", which overlap";
          return check;
        }
      }
    }
    check.assignments += static_cast<int64_t>(evs.size());
    const double cost = model.TourCost(u, evs);
    if (cost > model.budget[static_cast<size_t>(u)] + 1e-7) {
      check.violation = "user " + std::to_string(u) + " tour " +
                        std::to_string(cost) + " exceeds budget " +
                        std::to_string(model.budget[static_cast<size_t>(u)]);
      return check;
    }
  }
  for (int e = 0; e < model.events; ++e) {
    if (attendance[static_cast<size_t>(e)] > model.eta[static_cast<size_t>(e)]) {
      check.violation = "event " + std::to_string(e) + " has " +
                        std::to_string(attendance[static_cast<size_t>(e)]) +
                        " attendees, above eta " +
                        std::to_string(model.eta[static_cast<size_t>(e)]);
      return check;
    }
    if (attendance[static_cast<size_t>(e)] < model.xi[static_cast<size_t>(e)]) {
      ++check.below_xi;
    }
  }
  check.feasible = true;
  return check;
}

bool CheckItineraryReply(const Model& model, int user, const Json& reply,
                         std::string* error) {
  if (!reply.Bool("ok") || static_cast<int>(reply.Num("user", -1)) != user) {
    *error = "query_user " + std::to_string(user) + " failed";
    return false;
  }
  const Json& stops = reply["stops"];
  double travel = 0.0, utility = 0.0;
  double px = model.ux[static_cast<size_t>(user)];
  double py = model.uy[static_cast<size_t>(user)];
  std::vector<int> evs;
  for (size_t k = 0; k < stops.items.size(); ++k) {
    const Json& stop = stops.items[k];
    const int e = static_cast<int>(stop.Num("event", -1));
    if (e < 0 || e >= model.events) {
      *error = "itinerary names an unknown event";
      return false;
    }
    if (static_cast<int>(stop.Num("start")) != model.start[e] ||
        static_cast<int>(stop.Num("end")) != model.end[e]) {
      *error = "itinerary stop times differ from the event's";
      return false;
    }
    for (int prev : evs) {
      if (model.Conflict(prev, e)) {
        *error = "itinerary of user " + std::to_string(user) +
                 " holds overlapping events";
        return false;
      }
    }
    if (!evs.empty() && model.start[evs.back()] > model.start[e]) {
      *error = "itinerary stops are not in start order";
      return false;
    }
    const double leg = Dist(px, py, model.ex[e], model.ey[e]);
    if (!Close(leg, stop.Num("travel"))) {
      *error = "itinerary leg to event " + std::to_string(e) +
               " differs from the recomputed distance";
      return false;
    }
    if (!Close(model.Utility(user, e), stop.Num("utility"))) {
      *error = "itinerary stop utility differs from mu";
      return false;
    }
    travel += leg;
    utility += model.Utility(user, e);
    px = model.ex[e];
    py = model.ey[e];
    evs.push_back(e);
  }
  double fees = 0.0;
  for (int e : evs) fees += model.fee[e];
  if (!evs.empty()) {
    travel += Dist(px, py, model.ux[static_cast<size_t>(user)],
                   model.uy[static_cast<size_t>(user)]);
  }
  if (!Close(travel, reply.Num("travel")) ||
      !Close(travel, model.TourCost(user, evs) - fees)) {
    *error = "itinerary travel of user " + std::to_string(user) +
             " differs from the recomputed tour";
    return false;
  }
  if (!Close(utility, reply.Num("utility"))) {
    *error = "itinerary utility differs from the recomputed sum";
    return false;
  }
  if (reply.Num("cost") > model.budget[static_cast<size_t>(user)] + 1e-7) {
    *error = "itinerary of user " + std::to_string(user) + " is over budget";
    return false;
  }
  return true;
}

bool CheckEventReply(const Model& model, int event, const Json& reply,
                     std::string* error) {
  if (!reply.Bool("ok") || static_cast<int>(reply.Num("event", -1)) != event) {
    *error = "query_event " + std::to_string(event) + " failed";
    return false;
  }
  if (static_cast<int>(reply.Num("xi", -1)) != model.xi[event] ||
      static_cast<int>(reply.Num("eta", -1)) != model.eta[event] ||
      static_cast<int>(reply.Num("start", -1)) != model.start[event] ||
      static_cast<int>(reply.Num("end", -1)) != model.end[event]) {
    *error = "query_event " + std::to_string(event) +
             " bounds or times differ from the traced instance";
    return false;
  }
  if (reply.Num("attendance", -1) < 0 ||
      reply.Num("attendance") > model.eta[event]) {
    *error = "query_event " + std::to_string(event) + " attendance above eta";
    return false;
  }
  return true;
}

bool SelfTest(std::string* error) {
  // Two users at the origin, three events: 0 and 1 overlap in time, 2 is
  // far away. Capacities 1, 2, 1.
  Model m;
  m.users = 2;
  m.events = 3;
  m.ux = {0, 0};
  m.uy = {0, 0};
  m.budget = {10, 10};
  m.ex = {1, 2, 30};
  m.ey = {0, 0, 0};
  m.fee = {0, 0, 0};
  m.xi = {0, 1, 0};
  m.eta = {1, 2, 1};
  m.start = {60, 90, 200};
  m.end = {120, 150, 260};
  m.mu = {0.5, 0.25, 0.75, 0.4, 0.3, 0.9};
  const PlanRows good = {{0}, {1}};
  const PlanCheck ok = CheckPlan(m, good);
  if (!ok.feasible || !Close(ok.utility, 0.8) || ok.below_xi != 0) {
    *error = "self-test: a feasible plan was rejected: " + ok.violation;
    return false;
  }
  const std::vector<PlanRows> corrupted = {
      {{0, 1}, {1}},  // overlapping events
      {{0}, {0}},     // event 0 over capacity
      {{2}, {1}},     // tour 60 over budget 10
  };
  for (const PlanRows& bad : corrupted) {
    if (CheckPlan(m, bad).feasible) {
      *error = "self-test: a corrupted plan was accepted";
      return false;
    }
  }
  Json reply;
  const std::string good_reply =
      R"({"ok":true,"user":0,"budget":10,"utility":0.5,"travel":2,"fees":0,)"
      R"("cost":2,"within_budget":true,"conflict_free":true,"stops":)"
      R"([{"event":0,"start":60,"end":120,"travel":1,"fee":0,"utility":0.5}]})";
  std::string why;
  if (!Json::Parse(good_reply, &reply) ||
      !CheckItineraryReply(m, 0, reply, &why)) {
    *error = "self-test: a correct reply was rejected: " + why;
    return false;
  }
  const std::vector<std::pair<std::string, std::string>> edits = {
      {R"("travel":2,)", R"("travel":2.5,)"},          // wrong total travel
      {R"("travel":1,)", R"("travel":1.5,)"},          // wrong leg
      {R"("utility":0.5,"travel")", R"("utility":0.9,"travel")"},  // utility
      {R"("end":120)", R"("end":121)"},                // stale event time
  };
  for (const auto& [from, to] : edits) {
    std::string text = good_reply;
    text.replace(text.find(from), from.size(), to);
    Json bad;
    if (!Json::Parse(text, &bad) || CheckItineraryReply(m, 0, bad, &why)) {
      *error = "self-test: a corrupted reply was accepted (" + to + ")";
      return false;
    }
  }
  Json event_reply;
  Json::Parse(R"({"ok":true,"event":1,"attendance":3,"xi":1,"eta":2,)"
              R"("start":90,"end":150})",
              &event_reply);
  if (CheckEventReply(m, 1, event_reply, &why)) {
    *error = "self-test: an over-capacity event reply was accepted";
    return false;
  }
  return true;
}

}  // namespace perfbench
