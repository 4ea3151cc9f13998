#include "model/circuit.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>

#include "base/strings.h"

namespace mintc {

Circuit::Circuit(std::string name, int num_phases)
    : name_(std::move(name)), num_phases_(num_phases) {
  assert(num_phases >= 1);
}

int Circuit::add_element(Element element) {
  assert(by_name_.find(element.name) == by_name_.end() && "duplicate element name");
  const int id = static_cast<int>(elements_.size());
  by_name_.emplace(element.name, id);
  elements_.push_back(std::move(element));
  fanin_.emplace_back();
  fanout_.emplace_back();
  return id;
}

int Circuit::add_latch(std::string name, int phase, double setup, double dq) {
  Element e;
  e.name = std::move(name);
  e.kind = ElementKind::kLatch;
  e.phase = phase;
  e.setup = setup;
  e.dq = dq;
  return add_element(std::move(e));
}

int Circuit::add_flipflop(std::string name, int phase, double setup, double clk_to_q) {
  Element e;
  e.name = std::move(name);
  e.kind = ElementKind::kFlipFlop;
  e.phase = phase;
  e.setup = setup;
  e.dq = clk_to_q;
  return add_element(std::move(e));
}

int Circuit::add_path(int from, int to, double delay, double min_delay, std::string label) {
  assert(from >= 0 && from < num_elements() && to >= 0 && to < num_elements());
  const int id = static_cast<int>(paths_.size());
  paths_.push_back(CombPath{from, to, delay, min_delay, std::move(label)});
  fanout_[static_cast<size_t>(from)].push_back(id);
  fanin_[static_cast<size_t>(to)].push_back(id);
  return id;
}

int Circuit::add_path(const std::string& from, const std::string& to, double delay,
                      double min_delay, std::string label) {
  const auto f = find_element(from);
  const auto t = find_element(to);
  assert(f && t && "unknown element name in add_path");
  return add_path(*f, *t, delay, min_delay, std::move(label));
}

void Circuit::add_paths(std::vector<CombPath> paths) {
  std::vector<int> fanout_size(elements_.size());
  std::vector<int> fanin_size(elements_.size());
  for (const CombPath& p : paths) {
    assert(p.from >= 0 && p.from < num_elements() && p.to >= 0 && p.to < num_elements());
    ++fanout_size[static_cast<size_t>(p.from)];
    ++fanin_size[static_cast<size_t>(p.to)];
  }
  for (size_t e = 0; e < elements_.size(); ++e) {
    fanout_[e].reserve(fanout_[e].size() + static_cast<size_t>(fanout_size[e]));
    fanin_[e].reserve(fanin_[e].size() + static_cast<size_t>(fanin_size[e]));
  }
  int id = num_paths();
  for (const CombPath& p : paths) {
    fanout_[static_cast<size_t>(p.from)].push_back(id);
    fanin_[static_cast<size_t>(p.to)].push_back(id);
    ++id;
  }
  if (paths_.empty()) {
    paths_ = std::move(paths);
  } else {
    paths_.insert(paths_.end(), std::make_move_iterator(paths.begin()),
                  std::make_move_iterator(paths.end()));
  }
}

void Circuit::shrink_to_fit() {
  elements_.shrink_to_fit();
  paths_.shrink_to_fit();
  fanin_.shrink_to_fit();
  fanout_.shrink_to_fit();
}

void Circuit::set_path_delay(int p, double delay) {
  CombPath& path = paths_.at(static_cast<size_t>(p));
  assert(std::isfinite(delay) && delay >= 0.0 && "path delay must be finite and nonnegative");
  assert(path.min_delay <= delay && "path max delay must stay >= its min delay");
  path.delay = delay;
}

void Circuit::set_path_min_delay(int p, double min_delay) {
  CombPath& path = paths_.at(static_cast<size_t>(p));
  assert(std::isfinite(min_delay) && min_delay >= 0.0 &&
         "path min delay must be finite and nonnegative");
  assert(min_delay <= path.delay && "path min delay must stay <= its max delay");
  path.min_delay = min_delay;
}

void Circuit::set_path_label(int p, std::string label) {
  paths_.at(static_cast<size_t>(p)).label = std::move(label);
}

CombPath Circuit::remove_path(int p) {
  assert(p >= 0 && p < num_paths());
  CombPath removed = std::move(paths_[static_cast<size_t>(p)]);
  paths_.erase(paths_.begin() + p);
  for (auto* lists : {&fanin_, &fanout_}) {
    for (auto& list : *lists) {
      auto it = list.begin();
      for (int& id : list) {
        if (id == p) continue;  // dropped below via the write iterator
        *it++ = id > p ? id - 1 : id;
      }
      list.erase(it, list.end());
    }
  }
  return removed;
}

void Circuit::insert_path(int pos, CombPath path) {
  assert(pos >= 0 && pos <= num_paths());
  assert(path.from >= 0 && path.from < num_elements() && path.to >= 0 &&
         path.to < num_elements());
  for (auto* lists : {&fanin_, &fanout_}) {
    for (auto& list : *lists) {
      for (int& id : list) {
        if (id >= pos) ++id;
      }
    }
  }
  // fanin_/fanout_ lists are kept ascending (add_path appends the largest id),
  // so re-insert at the sorted position to restore the exact original order.
  auto& out = fanout_[static_cast<size_t>(path.from)];
  out.insert(std::lower_bound(out.begin(), out.end(), pos), pos);
  auto& in = fanin_[static_cast<size_t>(path.to)];
  in.insert(std::lower_bound(in.begin(), in.end(), pos), pos);
  paths_.insert(paths_.begin() + pos, std::move(path));
}

Element Circuit::remove_element(int e) {
  assert(e >= 0 && e < num_elements());
  assert(fanin_[static_cast<size_t>(e)].empty() && fanout_[static_cast<size_t>(e)].empty() &&
         "remove incident paths before removing an element");
  Element removed = std::move(elements_[static_cast<size_t>(e)]);
  elements_.erase(elements_.begin() + e);
  fanin_.erase(fanin_.begin() + e);
  fanout_.erase(fanout_.begin() + e);
  by_name_.erase(removed.name);
  for (auto& entry : by_name_) {
    if (entry.second > e) --entry.second;
  }
  for (CombPath& p : paths_) {
    assert(p.from != e && p.to != e);
    if (p.from > e) --p.from;
    if (p.to > e) --p.to;
  }
  return removed;
}

void Circuit::insert_element(int pos, Element element) {
  assert(pos >= 0 && pos <= num_elements());
  assert(by_name_.find(element.name) == by_name_.end() && "duplicate element name");
  for (auto& entry : by_name_) {
    if (entry.second >= pos) ++entry.second;
  }
  for (CombPath& p : paths_) {
    if (p.from >= pos) ++p.from;
    if (p.to >= pos) ++p.to;
  }
  by_name_.emplace(element.name, pos);
  elements_.insert(elements_.begin() + pos, std::move(element));
  fanin_.emplace(fanin_.begin() + pos);
  fanout_.emplace(fanout_.begin() + pos);
}

std::optional<int> Circuit::find_element(std::string_view name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

const std::vector<int>& Circuit::fanin(int element) const {
  return fanin_.at(static_cast<size_t>(element));
}

const std::vector<int>& Circuit::fanout(int element) const {
  return fanout_.at(static_cast<size_t>(element));
}

int Circuit::max_fanin() const {
  size_t f = 0;
  for (const auto& v : fanin_) f = std::max(f, v.size());
  return static_cast<int>(f);
}

KMatrix Circuit::k_matrix() const {
  KMatrix K(num_phases_);
  for (const CombPath& p : paths_) {
    const Element& from = elements_[static_cast<size_t>(p.from)];
    const Element& to = elements_[static_cast<size_t>(p.to)];
    if (!from.is_latch() || !to.is_latch()) continue;  // flip-flops cannot race
    K.set(from.phase, to.phase, true);
  }
  return K;
}

graph::Digraph Circuit::latch_graph() const {
  graph::Digraph g(num_elements());
  for (int p = 0; p < num_paths(); ++p) {
    const CombPath& path = paths_[static_cast<size_t>(p)];
    const Element& from = elements_[static_cast<size_t>(path.from)];
    const Element& to = elements_[static_cast<size_t>(path.to)];
    g.add_edge(path.from, path.to, from.dq + path.delay,
               static_cast<double>(c_flag(from.phase, to.phase)), p);
  }
  return g;
}

void Circuit::validate_element(int i, std::vector<std::string>& problems) const {
  const Element& e = elements_.at(static_cast<size_t>(i));
  if (e.phase < 1 || e.phase > num_phases_) {
    problems.push_back("element '" + e.name + "' uses phase " + std::to_string(e.phase) +
                       " outside 1.." + std::to_string(num_phases_));
  }
  if (!std::isfinite(e.setup) || !std::isfinite(e.dq) || !std::isfinite(e.hold) ||
      !std::isfinite(e.min_dq()) || !std::isfinite(e.skew)) {
    problems.push_back("element '" + e.name + "' has a non-finite timing parameter");
    return;  // the sign/ordering checks below are meaningless on NaN
  }
  if (e.setup < 0.0) problems.push_back("element '" + e.name + "' has negative setup time");
  if (e.dq < 0.0) problems.push_back("element '" + e.name + "' has negative Δ_DQ");
  if (e.hold < 0.0) problems.push_back("element '" + e.name + "' has negative hold time");
  if (e.skew < 0.0) problems.push_back("element '" + e.name + "' has negative clock skew");
  if (e.is_latch() && e.dq < e.setup) {
    problems.push_back("element '" + e.name +
                       "' violates the paper's assumption Δ_DQ >= Δ_DC (Δ_DQ=" +
                       fmt_time(e.dq) + ", Δ_DC=" + fmt_time(e.setup) + ")");
  }
  if (e.min_dq() > e.dq) {
    problems.push_back("element '" + e.name + "' has min Δ_DQ greater than max Δ_DQ");
  }
}

void Circuit::validate_path(int p, std::vector<std::string>& problems) const {
  const CombPath& path = paths_.at(static_cast<size_t>(p));
  if (!std::isfinite(path.delay) || !std::isfinite(path.min_delay)) {
    problems.push_back("path '" + path.label + "' has a non-finite delay");
    return;
  }
  if (path.delay < 0.0) {
    problems.push_back("path '" + path.label + "' has negative max delay");
  }
  if (path.min_delay < 0.0) {
    problems.push_back("path '" + path.label + "' has negative min delay");
  }
  if (path.min_delay > path.delay) {
    problems.push_back("path '" + path.label + "' has min delay greater than max delay");
  }
}

std::vector<std::string> Circuit::validate() const {
  std::vector<std::string> problems;
  if (num_phases_ < 1) problems.push_back("circuit must have at least one clock phase");
  for (int i = 0; i < num_elements(); ++i) validate_element(i, problems);
  // A path parallels an earlier finite path between the same two elements.
  // Fan-out lists ascend, so walking each with stamp[to] = from marks every
  // finite path after the first into each `to`.
  const auto finite = [](const CombPath& p) {
    return std::isfinite(p.delay) && std::isfinite(p.min_delay);
  };
  std::vector<char> parallel(paths_.size(), 0);
  std::vector<int> stamp(elements_.size(), -1);
  for (int from = 0; from < num_elements(); ++from) {
    for (const int id : fanout_[static_cast<size_t>(from)]) {
      const CombPath& p = paths_[static_cast<size_t>(id)];
      if (!finite(p)) continue;
      int& seen = stamp[static_cast<size_t>(p.to)];
      parallel[static_cast<size_t>(id)] = seen == from;
      seen = from;
    }
  }
  for (int i = 0; i < num_paths(); ++i) {
    validate_path(i, problems);
    if (parallel[static_cast<size_t>(i)] == 0) continue;
    const CombPath& p = paths_[static_cast<size_t>(i)];
    problems.push_back("parallel combinational paths between '" +
                       elements_[static_cast<size_t>(p.from)].name + "' and '" +
                       elements_[static_cast<size_t>(p.to)].name +
                       "' (merge them by taking max/min delays)");
  }
  return problems;
}

}  // namespace mintc
