#ifndef KGRAPH_STORE_MEM_DELTA_H_
#define KGRAPH_STORE_MEM_DELTA_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "graph/knowledge_graph.h"
#include "serve/snapshot.h"
#include "store/wal.h"

namespace kg::store {

/// The in-memory overlay of mutations not yet folded into the base
/// snapshot, keyed in that base's id space: base nodes and predicates
/// keep their snapshot ids, and names the base lacks take ids past
/// `base.num_nodes()` / `base.num_predicates()` from a small table of new
/// names. Each touched triple carries its *final* state (last op in log
/// order wins) plus the sequence number of that op, so:
///   - reads merge a base CSR row with the node's delta entries in one
///     sorted pass (kRetracted hides a base triple, kUpserted surfaces a
///     new one);
///   - compaction can fold everything through sequence S into a new base
///     and keep only entries whose last op is newer — an entry's state
///     shadows any base correctly regardless of where the fold line
///     falls.
///
/// Storage is two flat sorted arrays of POD entries — SPO-sorted (s, p,
/// o) and OSP-sorted (o, p, s) — so iteration order is a pure function
/// of content and a node's entries are one binary-searched span. Flat
/// arrays suit the traffic: compaction keeps the live delta to a few
/// hundred entries, and a publish copies it (the store publishes deltas
/// as immutable copy-on-write snapshots behind an epoch swap). Writes
/// arrive as batches that are sorted once and merged in, so a WAL
/// replayed at open — as long as every write since the base was built —
/// is one O(n log n) batch, not n sorted inserts. Not internally
/// synchronized.
class MemDelta {
 public:
  enum class State : uint8_t {
    kUntouched = 0,  ///< The overlay says nothing; the base decides.
    kUpserted = 1,   ///< Present regardless of the base.
    kRetracted = 2,  ///< Absent regardless of the base.
  };

  struct Entry {
    uint32_t s = 0;
    uint32_t p = 0;
    uint32_t o = 0;
    State state = State::kUntouched;
    uint64_t seq = 0;  ///< Log sequence of the last op on this triple.
  };

  /// An empty delta keyed to `base`'s id space.
  explicit MemDelta(const serve::KgSnapshot& base)
      : base_nodes_(static_cast<uint32_t>(base.num_nodes())),
        base_predicates_(static_cast<uint32_t>(base.num_predicates())) {}

  /// Records `log[i]` as operation `first_seq + i`, overwriting any
  /// previous state of the same triple (last op wins). `base` must be the
  /// snapshot this delta is keyed to; names it lacks are interned as new
  /// ids. The batch is sorted once and merged in, so one call costs
  /// O(size() + n log n): a live write batch and a whole replayed WAL go
  /// through the same path.
  void Apply(const serve::KgSnapshot& base, std::span<const Mutation> log,
             uint64_t first_seq);

  /// Entries with subject `s`, in (p, o) order.
  std::span<const Entry> BySubject(uint32_t s) const;
  /// Entries with object `o`, in (p, s) order.
  std::span<const Entry> ByObject(uint32_t o) const;
  /// Every entry, in (s, p, o) order.
  std::span<const Entry> entries() const { return spo_; }

  /// Drops entries whose last op is <= `seq` — the fold line of a
  /// completed compaction (those states are now the base's). Ids and the
  /// new-name table are unchanged.
  void TrimThrough(uint64_t seq);

  /// This delta's entries (names resolved against `old_base`, the base
  /// it is keyed to) re-keyed into `new_base`'s id space: names the new
  /// base has take its ids, the rest are interned afresh past its range.
  MemDelta Rekey(const serve::KgSnapshot& old_base,
                 const serve::KgSnapshot& new_base) const;

  // --- New-name table ---------------------------------------------------

  uint32_t base_nodes() const { return base_nodes_; }
  uint32_t base_predicates() const { return base_predicates_; }
  size_t num_nodes() const { return base_nodes_ + new_nodes_.size(); }
  size_t num_predicates() const {
    return base_predicates_ + new_predicates_.size();
  }
  /// Id of a node the base lacks; NotFound when it was never interned.
  Result<serve::NodeId> FindNewNode(std::string_view name,
                                    graph::NodeKind kind) const;
  Result<serve::PredicateId> FindNewPredicate(std::string_view name) const;
  /// Name/kind of an interned id (>= base_nodes(); empty/kEntity when out
  /// of range).
  std::string_view NewNodeName(serve::NodeId id) const;
  graph::NodeKind NewNodeKind(serve::NodeId id) const;
  std::string_view NewPredicateName(serve::PredicateId id) const;

  size_t size() const { return spo_.size(); }
  bool empty() const { return spo_.empty(); }

  /// Highest sequence applied (0 when empty since construction).
  uint64_t last_seq() const { return last_seq_; }

 private:
  struct NewNode {
    graph::NodeKind kind = graph::NodeKind::kEntity;
    std::string name;
  };

  /// Key of a new node in `new_node_ids_`: the kind byte, then the name.
  static std::string NodeKey(std::string_view name, graph::NodeKind kind);
  uint32_t InternNode(const serve::KgSnapshot& base, std::string_view name,
                      graph::NodeKind kind);
  uint32_t InternPredicate(const serve::KgSnapshot& base,
                           std::string_view name);
  /// Merges `batch` (in log order) into both arrays; per triple, the
  /// last batch entry wins over earlier ones and over the arrays'.
  void Insert(std::vector<Entry> batch);

  uint32_t base_nodes_ = 0;
  uint32_t base_predicates_ = 0;
  std::vector<Entry> spo_;  ///< sorted (s, p, o)
  std::vector<Entry> osp_;  ///< sorted (o, p, s), same entries
  /// id - base_nodes_ -> node, and back; the same for predicates.
  std::vector<NewNode> new_nodes_;
  std::unordered_map<std::string, uint32_t> new_node_ids_;
  std::vector<std::string> new_predicates_;
  std::unordered_map<std::string, uint32_t> new_predicate_ids_;
  uint64_t last_seq_ = 0;
};

/// A base snapshot plus the delta that shadows it, read through the same
/// accessors as KgSnapshot so serve::ExecuteQuery runs over it unchanged.
/// A node the delta does not touch reads its raw CSR row (no allocation);
/// a touched node's row is merged with its delta span on the fly. Holds
/// references: both must outlive the view.
struct OverlayView {
  /// Sorted merge of one base CSR row with one node's delta span.
  class EdgeRange {
   public:
    class iterator {
     public:
      using value_type = serve::KgSnapshot::Edge;
      using difference_type = std::ptrdiff_t;

      iterator() = default;
      iterator(serve::KgSnapshot::EdgeRange base,
               std::span<const MemDelta::Entry> delta, bool by_object)
          : base_(base.begin()), delta_(delta.data()),
            delta_end_(delta.data() + delta.size()), by_object_(by_object) {
        Advance();
      }

      const value_type& operator*() const { return cur_; }
      const value_type* operator->() const { return &cur_; }
      iterator& operator++() {
        Advance();
        return *this;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.avail_ == b.avail_ &&
               (!a.avail_ || (a.base_ == b.base_ && a.delta_ == b.delta_));
      }

     private:
      void Advance();

      serve::KgSnapshot::EdgeRange::iterator base_;
      const MemDelta::Entry* delta_ = nullptr;
      const MemDelta::Entry* delta_end_ = nullptr;
      bool by_object_ = false;  ///< delta key is (p, s), not (p, o)
      bool avail_ = false;
      value_type cur_{};
    };

    EdgeRange(serve::KgSnapshot::EdgeRange base,
              std::span<const MemDelta::Entry> delta, bool by_object)
        : base_(base), delta_(delta), by_object_(by_object) {}

    iterator begin() const { return iterator(base_, delta_, by_object_); }
    iterator end() const { return iterator(); }

   private:
    serve::KgSnapshot::EdgeRange base_;
    std::span<const MemDelta::Entry> delta_;
    bool by_object_;
  };

  const serve::KgSnapshot& base;
  const MemDelta& delta;

  size_t num_nodes() const { return delta.num_nodes(); }
  size_t num_predicates() const { return delta.num_predicates(); }

  Result<serve::NodeId> FindNode(std::string_view name,
                                 graph::NodeKind kind) const;
  Result<serve::PredicateId> FindPredicate(std::string_view name) const;

  std::string_view NodeName(serve::NodeId id) const {
    return id < delta.base_nodes() ? base.NodeName(id)
                                   : delta.NewNodeName(id);
  }
  graph::NodeKind NodeKindOf(serve::NodeId id) const {
    return id < delta.base_nodes() ? base.NodeKindOf(id)
                                   : delta.NewNodeKind(id);
  }
  std::string_view PredicateName(serve::PredicateId id) const {
    return id < delta.base_predicates() ? base.PredicateName(id)
                                        : delta.NewPredicateName(id);
  }

  /// Live out-edges of `s`: Edge{predicate, object}, sorted (p, o).
  EdgeRange OutEdges(serve::NodeId s) const {
    return EdgeRange(base.OutEdges(s), delta.BySubject(s), false);
  }
  /// Live in-edges of `o`: Edge{predicate, subject}, sorted (p, s).
  EdgeRange InEdges(serve::NodeId o) const {
    return EdgeRange(base.InEdges(o), delta.ByObject(o), true);
  }
  /// Upper bounds on the live degree (a retraction or a re-upsert of a
  /// base edge counts twice) — the query bodies use them only to reserve.
  size_t OutDegree(serve::NodeId s) const {
    return base.OutDegree(s) + delta.BySubject(s).size();
  }
  size_t InDegree(serve::NodeId o) const {
    return base.InDegree(o) + delta.ByObject(o).size();
  }

  /// Objects o with live (s, p, o), ascending.
  std::vector<serve::NodeId> Objects(serve::NodeId s,
                                     serve::PredicateId p) const;
  /// Subjects s with live (s, p, o), ascending.
  std::vector<serve::NodeId> Subjects(serve::PredicateId p,
                                      serve::NodeId o) const;
};

/// Compiles the live triples of `view` into a fresh snapshot — the one
/// KgSnapshot::Compile gives for the same triple set, fingerprint
/// included, provided the base is canonical (built by Compile or by
/// FoldOverlay, as every store base is). Streams base ⊕ delta into
/// SnapshotBuilder: the vocabulary is the base's live ids (already
/// (kind, name)-sorted) merged with the sorted live new names, and each
/// SPO row arrives sorted, so nothing is re-sorted globally. Nodes and
/// predicates left without a live triple drop out.
serve::KgSnapshot FoldOverlay(const OverlayView& view);

}  // namespace kg::store

#endif  // KGRAPH_STORE_MEM_DELTA_H_
