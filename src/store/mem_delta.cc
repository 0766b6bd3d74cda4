#include "store/mem_delta.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace kg::store {

namespace {

using Entry = MemDelta::Entry;
using serve::KgSnapshot;
using serve::NodeId;
using serve::PredicateId;

bool SpoLess(const Entry& a, const Entry& b) {
  return std::tie(a.s, a.p, a.o) < std::tie(b.s, b.p, b.o);
}

bool OspLess(const Entry& a, const Entry& b) {
  return std::tie(a.o, a.p, a.s) < std::tie(b.o, b.p, b.s);
}

/// The sub-span of `sorted` whose `field` equals `id` (`sorted` is
/// ordered by that field first).
template <uint32_t Entry::*field>
std::span<const Entry> RangeOf(const std::vector<Entry>& sorted,
                               uint32_t id) {
  const auto lo = std::partition_point(
      sorted.begin(), sorted.end(),
      [id](const Entry& e) { return e.*field < id; });
  const auto hi = std::partition_point(
      lo, sorted.end(), [id](const Entry& e) { return e.*field == id; });
  return {lo, hi};
}

/// Keeps only the last of each run of entries equal under `less` (the
/// runs are in log order, so the last is the newest op on that triple).
template <typename Less>
void KeepLastOfEachRun(std::vector<Entry>& sorted, Less less) {
  auto out = sorted.begin();
  for (auto it = sorted.begin(); it != sorted.end(); ++it) {
    const auto next = it + 1;
    if (next != sorted.end() && !less(*it, *next)) continue;
    *out++ = *it;
  }
  sorted.erase(out, sorted.end());
}

/// Merges `batch` (sorted by `less`, one entry per triple) into `sorted`;
/// a batch entry replaces the existing entry for its triple.
template <typename Less>
void MergeNewer(std::vector<Entry>& sorted, const std::vector<Entry>& batch,
                Less less) {
  const auto old_size = static_cast<std::ptrdiff_t>(sorted.size());
  sorted.insert(sorted.end(), batch.begin(), batch.end());
  // Stable: of two equal entries the existing one stays first.
  std::inplace_merge(sorted.begin(), sorted.begin() + old_size,
                     sorted.end(), less);
  KeepLastOfEachRun(sorted, less);
}

}  // namespace

// --- MemDelta -------------------------------------------------------------

void MemDelta::Apply(const KgSnapshot& base, std::span<const Mutation> log,
                     uint64_t first_seq) {
  std::vector<Entry> batch;
  batch.reserve(log.size());
  uint64_t seq = first_seq;
  for (const Mutation& m : log) {
    Entry& entry = batch.emplace_back();
    entry.s = InternNode(base, m.subject, m.subject_kind);
    entry.p = InternPredicate(base, m.predicate);
    entry.o = InternNode(base, m.object, m.object_kind);
    entry.state = m.op == MutationOp::kUpsert ? State::kUpserted
                                              : State::kRetracted;
    entry.seq = seq++;
  }
  Insert(std::move(batch));
}

void MemDelta::Insert(std::vector<Entry> batch) {
  std::stable_sort(batch.begin(), batch.end(), SpoLess);
  KeepLastOfEachRun(batch, SpoLess);
  for (const Entry& e : batch) last_seq_ = std::max(last_seq_, e.seq);
  MergeNewer(spo_, batch, SpoLess);
  std::sort(batch.begin(), batch.end(), OspLess);
  MergeNewer(osp_, batch, OspLess);
}

std::span<const Entry> MemDelta::BySubject(uint32_t s) const {
  return RangeOf<&Entry::s>(spo_, s);
}

std::span<const Entry> MemDelta::ByObject(uint32_t o) const {
  return RangeOf<&Entry::o>(osp_, o);
}

void MemDelta::TrimThrough(uint64_t seq) {
  const auto folded = [seq](const Entry& e) { return e.seq <= seq; };
  std::erase_if(spo_, folded);
  std::erase_if(osp_, folded);
}

MemDelta MemDelta::Rekey(const KgSnapshot& old_base,
                         const KgSnapshot& new_base) const {
  const OverlayView old{old_base, *this};
  MemDelta out(new_base);
  std::vector<Entry> batch = spo_;
  for (Entry& e : batch) {
    e.s = out.InternNode(new_base, old.NodeName(e.s), old.NodeKindOf(e.s));
    e.p = out.InternPredicate(new_base, old.PredicateName(e.p));
    e.o = out.InternNode(new_base, old.NodeName(e.o), old.NodeKindOf(e.o));
  }
  out.Insert(std::move(batch));
  out.last_seq_ = last_seq_;
  return out;
}

std::string MemDelta::NodeKey(std::string_view name, graph::NodeKind kind) {
  std::string key(1, static_cast<char>(kind));
  key += name;
  return key;
}

uint32_t MemDelta::InternNode(const KgSnapshot& base, std::string_view name,
                              graph::NodeKind kind) {
  if (const auto id = base.FindNode(name, kind); id.ok()) return *id;
  const auto [it, added] = new_node_ids_.try_emplace(
      NodeKey(name, kind),
      base_nodes_ + static_cast<uint32_t>(new_nodes_.size()));
  if (added) new_nodes_.push_back(NewNode{kind, std::string(name)});
  return it->second;
}

uint32_t MemDelta::InternPredicate(const KgSnapshot& base,
                                   std::string_view name) {
  if (const auto id = base.FindPredicate(name); id.ok()) return *id;
  const auto [it, added] = new_predicate_ids_.try_emplace(
      std::string(name),
      base_predicates_ + static_cast<uint32_t>(new_predicates_.size()));
  if (added) new_predicates_.emplace_back(name);
  return it->second;
}

Result<NodeId> MemDelta::FindNewNode(std::string_view name,
                                     graph::NodeKind kind) const {
  const auto it = new_node_ids_.find(NodeKey(name, kind));
  if (it != new_node_ids_.end()) return it->second;
  return Status::NotFound("node not in store: " + std::string(name));
}

Result<PredicateId> MemDelta::FindNewPredicate(std::string_view name) const {
  const auto it = new_predicate_ids_.find(std::string(name));
  if (it != new_predicate_ids_.end()) return it->second;
  return Status::NotFound("predicate not in store: " + std::string(name));
}

std::string_view MemDelta::NewNodeName(NodeId id) const {
  if (id < base_nodes_ || id - base_nodes_ >= new_nodes_.size()) return {};
  return new_nodes_[id - base_nodes_].name;
}

graph::NodeKind MemDelta::NewNodeKind(NodeId id) const {
  if (id < base_nodes_ || id - base_nodes_ >= new_nodes_.size()) {
    return graph::NodeKind::kEntity;
  }
  return new_nodes_[id - base_nodes_].kind;
}

std::string_view MemDelta::NewPredicateName(PredicateId id) const {
  if (id < base_predicates_ ||
      id - base_predicates_ >= new_predicates_.size()) {
    return {};
  }
  return new_predicates_[id - base_predicates_];
}

// --- OverlayView ----------------------------------------------------------

void OverlayView::EdgeRange::iterator::Advance() {
  using Edge = KgSnapshot::Edge;
  const KgSnapshot::EdgeRange::iterator base_end;
  while (true) {
    const bool have_base = base_ != base_end;
    if (delta_ != delta_end_) {
      const Entry& d = *delta_;
      const Edge key{d.p, by_object_ ? d.s : d.o};
      const bool before_base =
          !have_base || std::tie(key.first, key.second) <
                            std::tie(base_->first, base_->second);
      if (before_base || key == *base_) {
        // The delta decides this edge: an upsert surfaces it (once, even
        // when the base already has it), a retract hides it.
        if (!before_base) ++base_;
        ++delta_;
        if (d.state != MemDelta::State::kUpserted) continue;
        cur_ = key;
        avail_ = true;
        return;
      }
    }
    avail_ = have_base;
    if (!avail_) return;
    cur_ = *base_;
    ++base_;
    return;
  }
}

Result<NodeId> OverlayView::FindNode(std::string_view name,
                                     graph::NodeKind kind) const {
  if (auto id = base.FindNode(name, kind); id.ok()) return id;
  return delta.FindNewNode(name, kind);
}

Result<PredicateId> OverlayView::FindPredicate(std::string_view name) const {
  if (auto id = base.FindPredicate(name); id.ok()) return id;
  return delta.FindNewPredicate(name);
}

std::vector<NodeId> OverlayView::Objects(NodeId s, PredicateId p) const {
  std::vector<NodeId> out;
  for (const KgSnapshot::Edge& e : OutEdges(s)) {
    if (e.first < p) continue;
    if (e.first > p) break;
    out.push_back(e.second);
  }
  return out;
}

std::vector<NodeId> OverlayView::Subjects(PredicateId p, NodeId o) const {
  std::vector<NodeId> out;
  for (const KgSnapshot::Edge& e : InEdges(o)) {
    if (e.first < p) continue;
    if (e.first > p) break;
    out.push_back(e.second);
  }
  return out;
}

// --- FoldOverlay ----------------------------------------------------------

KgSnapshot FoldOverlay(const OverlayView& view) {
  const size_t n = view.num_nodes();
  const size_t m = view.num_predicates();
  const uint32_t base_nodes = view.delta.base_nodes();
  const uint32_t base_predicates = view.delta.base_predicates();

  // 1. Live vocabulary: nodes and predicates of at least one live triple.
  std::vector<bool> node_live(n, false);
  std::vector<bool> pred_live(m, false);
  for (NodeId s = 0; s < n; ++s) {
    for (const KgSnapshot::Edge& e : view.OutEdges(s)) {
      if (e.first >= m || e.second >= n) continue;  // corrupt base id
      node_live[s] = true;
      node_live[e.second] = true;
      pred_live[e.first] = true;
    }
  }

  // 2. Canonical order: the base's live ids are already (kind, name) /
  //    name sorted, so they merge with the sorted live new names.
  const auto node_less = [&view](NodeId a, NodeId b) {
    const graph::NodeKind ka = view.NodeKindOf(a), kb = view.NodeKindOf(b);
    if (ka != kb) return ka < kb;
    return view.NodeName(a) < view.NodeName(b);
  };
  const auto pred_less = [&view](PredicateId a, PredicateId b) {
    return view.PredicateName(a) < view.PredicateName(b);
  };
  const auto live_order = [](const std::vector<bool>& live, uint32_t split,
                             const auto& less) {
    std::vector<uint32_t> old_ids, new_ids, order;
    for (uint32_t id = 0; id < live.size(); ++id) {
      if (live[id]) (id < split ? old_ids : new_ids).push_back(id);
    }
    std::sort(new_ids.begin(), new_ids.end(), less);
    order.reserve(old_ids.size() + new_ids.size());
    std::merge(old_ids.begin(), old_ids.end(), new_ids.begin(),
               new_ids.end(), std::back_inserter(order), less);
    return order;
  };
  const std::vector<uint32_t> node_order =
      live_order(node_live, base_nodes, node_less);
  const std::vector<uint32_t> pred_order =
      live_order(pred_live, base_predicates, pred_less);

  serve::SnapshotBuilder builder;
  std::vector<uint32_t> node_remap(n, 0), pred_remap(m, 0);
  for (uint32_t i = 0; i < node_order.size(); ++i) {
    node_remap[node_order[i]] = i;
    builder.AddNode(view.NodeName(node_order[i]),
                    view.NodeKindOf(node_order[i]));
  }
  for (uint32_t i = 0; i < pred_order.size(); ++i) {
    pred_remap[pred_order[i]] = i;
    builder.AddPredicate(view.PredicateName(pred_order[i]));
  }

  // 3. Stream the rows in new-id order. Remapping is monotone within the
  //    base ids and within the new ids, so a row only needs a local sort
  //    when it mixes the two.
  const auto stream = [&](const serve::SnapshotBuilder::TripleSink& sink) {
    std::vector<std::pair<uint32_t, uint32_t>> row;
    for (uint32_t s = 0; s < node_order.size(); ++s) {
      row.clear();
      for (const KgSnapshot::Edge& e : view.OutEdges(node_order[s])) {
        if (e.first >= m || e.second >= n) continue;
        row.emplace_back(pred_remap[e.first], node_remap[e.second]);
      }
      if (!std::is_sorted(row.begin(), row.end())) {
        std::sort(row.begin(), row.end());
      }
      for (const auto& [p, o] : row) sink(s, p, o);
    }
  };
  auto built = builder.Build(stream);
  KG_CHECK_OK(built.status());  // ids and order are correct by construction
  return *std::move(built);
}

}  // namespace kg::store
