// MemDelta, the id-space overlay: last-op-wins state per triple, SPO/OSP
// span order, exact per-node spans (a name prefix is a different node),
// fold-line trimming, the copy-on-write property the store's epoch
// publishing relies on, and deterministic iteration. OverlayView merges
// base rows with the delta; FoldOverlay + Rekey are the two halves of a
// compaction and are checked against a from-scratch compile.

#include "store/mem_delta.h"

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "graph/knowledge_graph.h"
#include "serve/query_engine.h"
#include "serve/query_body.h"
#include "serve/snapshot.h"
#include "store/wal.h"

namespace kg::store {
namespace {

using graph::KnowledgeGraph;
using graph::NodeKind;
using graph::Provenance;
using serve::KgSnapshot;
using State = MemDelta::State;

const Provenance kProv{"test", 1.0, 0};

Mutation Up(const std::string& s, const std::string& p,
            const std::string& o, NodeKind sk = NodeKind::kEntity,
            NodeKind ok = NodeKind::kEntity) {
  return Mutation::Upsert(s, p, o, sk, ok, kProv);
}

Mutation Rt(const std::string& s, const std::string& p,
            const std::string& o, NodeKind sk = NodeKind::kEntity,
            NodeKind ok = NodeKind::kEntity) {
  return Mutation::Retract(s, p, o, sk, ok);
}

void ApplyToKg(KnowledgeGraph* kg, const Mutation& m) {
  if (m.op == MutationOp::kUpsert) {
    kg->AddTriple(m.subject, m.predicate, m.object, m.subject_kind,
                  m.object_kind, m.prov);
    return;
  }
  const auto s = kg->FindNode(m.subject, m.subject_kind);
  const auto p = kg->FindPredicate(m.predicate);
  const auto o = kg->FindNode(m.object, m.object_kind);
  if (!s.ok() || !p.ok() || !o.ok()) return;
  const graph::TripleId id = kg->FindTriple(*s, *p, *o);
  if (id != graph::kInvalidTriple) kg->RemoveTriple(id);
}

/// Records the single op `m` as operation `seq`.
void ApplyOne(MemDelta& delta, const KgSnapshot& base, const Mutation& m,
              uint64_t seq) {
  delta.Apply(base, std::span<const Mutation>(&m, 1), seq);
}

/// The delta's verdict on a triple named like `m`, read from its
/// subject's span (kUntouched when a name was never seen by base or
/// delta, or the triple has no entry).
State LookupByName(const KgSnapshot& base, const MemDelta& delta,
                   const Mutation& m) {
  const OverlayView view{base, delta};
  const auto s = view.FindNode(m.subject, m.subject_kind);
  const auto p = view.FindPredicate(m.predicate);
  const auto o = view.FindNode(m.object, m.object_kind);
  if (!s.ok() || !p.ok() || !o.ok()) return State::kUntouched;
  for (const MemDelta::Entry& e : delta.BySubject(*s)) {
    if (e.p == *p && e.o == *o) return e.state;
  }
  return State::kUntouched;
}

bool SameEntry(const MemDelta::Entry& x, const MemDelta::Entry& y) {
  return x.s == y.s && x.p == y.p && x.o == y.o && x.state == y.state &&
         x.seq == y.seq;
}

uint32_t IdOf(const KgSnapshot& base, const MemDelta& delta,
              const std::string& name, NodeKind kind = NodeKind::kEntity) {
  const auto id = OverlayView{base, delta}.FindNode(name, kind);
  EXPECT_TRUE(id.ok()) << name;
  return id.ok() ? *id : serve::kInvalidNode;
}

TEST(MemDeltaTest, LastOpWinsPerTriple) {
  const KgSnapshot base;
  MemDelta delta(base);
  EXPECT_TRUE(delta.empty());
  ApplyOne(delta, base, Up("a", "p", "b"), 1);
  EXPECT_EQ(LookupByName(base, delta, Up("a", "p", "b")), State::kUpserted);
  ApplyOne(delta, base, Rt("a", "p", "b"), 2);
  EXPECT_EQ(LookupByName(base, delta, Up("a", "p", "b")), State::kRetracted);
  ApplyOne(delta, base, Up("a", "p", "b"), 3);
  EXPECT_EQ(LookupByName(base, delta, Up("a", "p", "b")), State::kUpserted);
  EXPECT_EQ(delta.size(), 1u);  // one triple, whatever its history
  EXPECT_EQ(delta.last_seq(), 3u);
  EXPECT_EQ(delta.entries()[0].seq, 3u);
}

TEST(MemDeltaTest, LookupDistinguishesKinds) {
  const KgSnapshot base;
  MemDelta delta(base);
  ApplyOne(delta, base, Up("x", "p", "y", NodeKind::kEntity, NodeKind::kText),
              1);
  EXPECT_EQ(LookupByName(base, delta,
                         Up("x", "p", "y", NodeKind::kEntity, NodeKind::kText)),
            State::kUpserted);
  EXPECT_EQ(LookupByName(base, delta, Up("x", "p", "y")), State::kUntouched);
  EXPECT_EQ(LookupByName(base, delta,
                         Up("x", "p", "y", NodeKind::kText, NodeKind::kText)),
            State::kUntouched);
  // Same name, different kind: two distinct ids.
  ApplyOne(delta, base, Up("y", "p", "x"), 2);
  EXPECT_NE(IdOf(base, delta, "y"), IdOf(base, delta, "y", NodeKind::kText));
}

TEST(MemDeltaTest, TouchProbesAreExactNotPrefixMatches) {
  KnowledgeGraph kg;
  for (const char* name : {"a", "ab", "abc", "z", "zz"}) {
    kg.AddTriple(name, "seed", "anchor", NodeKind::kEntity, NodeKind::kEntity,
                 kProv);
  }
  const KgSnapshot base = KgSnapshot::Compile(kg);
  MemDelta delta(base);
  ApplyOne(delta, base, Up("ab", "p", "zz"), 1);
  EXPECT_EQ(delta.BySubject(IdOf(base, delta, "ab")).size(), 1u);
  EXPECT_TRUE(delta.BySubject(IdOf(base, delta, "a")).empty());
  EXPECT_TRUE(delta.BySubject(IdOf(base, delta, "abc")).empty());
  EXPECT_FALSE(
      OverlayView(base, delta).FindNode("ab", NodeKind::kText).ok());
  EXPECT_EQ(delta.ByObject(IdOf(base, delta, "zz")).size(), 1u);
  EXPECT_TRUE(delta.ByObject(IdOf(base, delta, "z")).empty());
  EXPECT_TRUE(delta.ByObject(IdOf(base, delta, "ab")).empty());
}

TEST(MemDeltaTest, ForEachBySubjectIsOrderedAndScoped) {
  // Base ids are (kind, name)-sorted, so id order is name order here.
  KnowledgeGraph kg;
  kg.AddTriple("s", "p", "o1", NodeKind::kEntity, NodeKind::kEntity, kProv);
  kg.AddTriple("s", "q", "o2", NodeKind::kEntity, NodeKind::kEntity, kProv);
  kg.AddTriple("s", "p", "o5", NodeKind::kEntity, NodeKind::kText, kProv);
  kg.AddTriple("s", "p", "o9", NodeKind::kEntity, NodeKind::kEntity, kProv);
  kg.AddTriple("other", "p", "o1", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  const KgSnapshot base = KgSnapshot::Compile(kg);
  MemDelta delta(base);
  ApplyOne(delta, base, Up("s", "q", "o2"), 1);
  ApplyOne(delta, base, Up("s", "p", "o9"), 2);
  ApplyOne(delta, base, Rt("s", "p", "o1"), 3);
  ApplyOne(delta, base, Up("other", "p", "o1"), 4);
  ApplyOne(delta, base, Up("s", "p", "o5", NodeKind::kEntity, NodeKind::kText), 5);

  const OverlayView view{base, delta};
  std::vector<std::string> seen;
  for (const MemDelta::Entry& e : delta.BySubject(IdOf(base, delta, "s"))) {
    seen.push_back(std::string(view.PredicateName(e.p)) + "/" +
                   std::string(view.NodeName(e.o)) + "/" +
                   (e.state == State::kUpserted ? "U" : "R"));
  }
  // (predicate, object kind, object) order; "other"'s entry never shows.
  const std::vector<std::string> expected = {
      "p/o1/R",  // p, kEntity, o1
      "p/o9/U",  // p, kEntity, o9
      "p/o5/U",  // p, kText, o5 (kText sorts after kEntity)
      "q/o2/U",
  };
  EXPECT_EQ(seen, expected);
}

TEST(MemDeltaTest, ForEachByObjectReconstructsFullTripleNames) {
  const KgSnapshot base;
  MemDelta delta(base);
  ApplyOne(delta, base, Up("s1", "p", "hub"), 1);
  ApplyOne(delta, base, Rt("s2", "q", "hub"), 2);
  ApplyOne(delta, base, Up("s3", "p", "elsewhere"), 3);

  const OverlayView view{base, delta};
  std::vector<std::string> seen;
  for (const MemDelta::Entry& e : delta.ByObject(IdOf(base, delta, "hub"))) {
    seen.push_back(std::string(view.NodeName(e.s)) + " " +
                   std::string(view.PredicateName(e.p)) + " " +
                   std::string(view.NodeName(e.o)));
  }
  const std::vector<std::string> expected = {"s1 p hub", "s2 q hub"};
  EXPECT_EQ(seen, expected);
}

TEST(MemDeltaTest, TrimThroughDropsOnlyFoldedEntries) {
  const KgSnapshot base;
  MemDelta delta(base);
  ApplyOne(delta, base, Up("a", "p", "b"), 1);
  ApplyOne(delta, base, Rt("c", "p", "d"), 2);
  ApplyOne(delta, base, Up("e", "p", "f"), 3);
  // Triple (a,p,b) mutated again *after* the fold line: its entry's seq
  // moves to 4, so it must survive a TrimThrough(3).
  ApplyOne(delta, base, Rt("a", "p", "b"), 4);

  delta.TrimThrough(3);
  EXPECT_EQ(delta.size(), 1u);
  EXPECT_EQ(LookupByName(base, delta, Up("a", "p", "b")), State::kRetracted);
  EXPECT_EQ(LookupByName(base, delta, Up("c", "p", "d")), State::kUntouched);
  EXPECT_EQ(LookupByName(base, delta, Up("e", "p", "f")), State::kUntouched);
  // The object-major index trims in lockstep.
  EXPECT_TRUE(delta.ByObject(IdOf(base, delta, "f")).empty());
  delta.TrimThrough(4);
  EXPECT_TRUE(delta.empty());
}

TEST(MemDeltaTest, CopyIsIndependentOfTheOriginal) {
  const KgSnapshot base;
  MemDelta original(base);
  ApplyOne(original, base, Up("a", "p", "b"), 1);
  const MemDelta snapshot = original;  // the store's copy-on-write publish
  ApplyOne(original, base, Rt("a", "p", "b"), 2);
  ApplyOne(original, base, Up("new", "p", "triple"), 3);

  EXPECT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(LookupByName(base, snapshot, Up("a", "p", "b")), State::kUpserted);
  EXPECT_FALSE(OverlayView(base, snapshot).FindNode("new", NodeKind::kEntity)
                   .ok());
  // Both index views of the copy reflect the old state too.
  const auto by_object = snapshot.ByObject(IdOf(base, snapshot, "b"));
  ASSERT_EQ(by_object.size(), 1u);
  EXPECT_EQ(by_object[0].state, State::kUpserted);
}

TEST(MemDeltaTest, HostileNamesWithTabsAndEmptiesWork) {
  const KgSnapshot base;
  MemDelta delta(base);
  ApplyOne(delta, base, Up("", "", "", NodeKind::kText, NodeKind::kClass), 1);
  ApplyOne(delta, base, Up("tab\there", "p\tq", "line\nbreak"), 2);
  EXPECT_EQ(delta.BySubject(IdOf(base, delta, "", NodeKind::kText)).size(),
            1u);
  EXPECT_EQ(delta.BySubject(IdOf(base, delta, "tab\there")).size(), 1u);
  EXPECT_EQ(LookupByName(base, delta, Up("tab\there", "p\tq", "line\nbreak")),
            State::kUpserted);
  EXPECT_EQ(delta.size(), 2u);
}

TEST(MemDeltaTest, SameLogIteratesIdentically) {
  KnowledgeGraph kg;
  kg.AddTriple("m", "knows", "n", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  const KgSnapshot base = KgSnapshot::Compile(kg);
  const std::vector<Mutation> log = {
      Up("zed", "likes", "m"), Rt("m", "knows", "n"), Up("amy", "likes", "zed"),
      Up("m", "knows", "amy"), Rt("ghost", "haunts", "m")};
  MemDelta a(base), b(base);
  for (size_t i = 0; i < log.size(); ++i) {
    ApplyOne(a, base, log[i], i + 1);
    ApplyOne(b, base, log[i], i + 1);
  }
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(SameEntry(a.entries()[i], b.entries()[i])) << i;
    if (i > 0) {
      const auto& prev = a.entries()[i - 1];
      const auto& cur = a.entries()[i];
      EXPECT_LT(std::tie(prev.s, prev.p, prev.o),
                std::tie(cur.s, cur.p, cur.o));
    }
  }
}

/// One batch (the live ApplyBatch and the WAL replay at open) ends in
/// the same delta as the same ops applied one at a time — repeats of a
/// triple and of a new name inside the batch included, over entries and
/// names already present.
TEST(MemDeltaTest, BatchApplyMatchesOneAtATime) {
  KnowledgeGraph kg;
  kg.AddTriple("m", "knows", "n", NodeKind::kEntity, NodeKind::kEntity,
               kProv);
  const KgSnapshot base = KgSnapshot::Compile(kg);
  const std::vector<Mutation> earlier = {Up("zed", "likes", "m"),
                                         Rt("m", "knows", "n")};
  const std::vector<Mutation> log = {
      Up("m", "knows", "n"),       Up("amy", "rates", "zed"),
      Rt("zed", "likes", "m"),     Up("amy", "rates", "bo", NodeKind::kEntity,
                                      NodeKind::kText),
      Rt("amy", "rates", "zed"),   Up("bo", "likes", "amy", NodeKind::kText),
      Up("amy", "rates", "zed")};
  MemDelta one(base), batched(base);
  for (size_t i = 0; i < earlier.size(); ++i) {
    ApplyOne(one, base, earlier[i], i + 1);
  }
  batched.Apply(base, earlier, 1);
  for (size_t i = 0; i < log.size(); ++i) {
    ApplyOne(one, base, log[i], earlier.size() + i + 1);
  }
  batched.Apply(base, log, earlier.size() + 1);

  ASSERT_EQ(batched.size(), one.size());
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_TRUE(SameEntry(batched.entries()[i], one.entries()[i])) << i;
  }
  EXPECT_EQ(batched.last_seq(), one.last_seq());
  EXPECT_EQ(batched.num_nodes(), one.num_nodes());
  EXPECT_EQ(batched.num_predicates(), one.num_predicates());
  EXPECT_EQ(LookupByName(base, batched, Up("amy", "rates", "zed")),
            State::kUpserted);
  EXPECT_EQ(LookupByName(base, batched, Up("zed", "likes", "m")),
            State::kRetracted);
  for (const Mutation& m : log) {
    EXPECT_EQ(IdOf(base, batched, m.subject, m.subject_kind),
              IdOf(base, one, m.subject, m.subject_kind));
    EXPECT_EQ(IdOf(base, batched, m.object, m.object_kind),
              IdOf(base, one, m.object, m.object_kind));
  }
  const auto bo = IdOf(base, batched, "bo", NodeKind::kText);
  EXPECT_EQ(batched.ByObject(bo).size(), one.ByObject(bo).size());
  EXPECT_EQ(batched.BySubject(bo).size(), 1u);
}

TEST(OverlayViewTest, MergedRowsShadowAndSurfaceEdgesOnce) {
  KnowledgeGraph kg;
  kg.AddTriple("a", "p", "b", NodeKind::kEntity, NodeKind::kEntity, kProv);
  kg.AddTriple("a", "p", "c", NodeKind::kEntity, NodeKind::kEntity, kProv);
  kg.AddTriple("d", "p", "b", NodeKind::kEntity, NodeKind::kEntity, kProv);
  const KgSnapshot base = KgSnapshot::Compile(kg);
  MemDelta delta(base);
  ApplyOne(delta, base, Up("a", "p", "b"), 1);    // already in the base
  ApplyOne(delta, base, Rt("a", "p", "c"), 2);    // hides a base edge
  ApplyOne(delta, base, Up("a", "p", "new"), 3);  // surfaces a new node
  ApplyOne(delta, base, Rt("a", "q", "b"), 4);    // retracts the absent
  const OverlayView view{base, delta};

  const uint32_t a = IdOf(base, delta, "a");
  std::vector<std::string> out;
  for (const KgSnapshot::Edge& e : view.OutEdges(a)) {
    out.push_back(std::string(view.NodeName(e.second)));
  }
  EXPECT_EQ(out, (std::vector<std::string>{"b", "new"}));
  EXPECT_GE(view.OutDegree(a), out.size());  // a reserve bound, not exact
  std::vector<std::string> in;
  for (const KgSnapshot::Edge& e : view.InEdges(IdOf(base, delta, "b"))) {
    in.push_back(std::string(view.NodeName(e.second)));
  }
  EXPECT_EQ(in, (std::vector<std::string>{"a", "d"}));
  const auto c_in = view.InEdges(IdOf(base, delta, "c"));
  EXPECT_TRUE(c_in.begin() == c_in.end());  // its only edge is retracted
  EXPECT_EQ(view.Subjects(*view.FindPredicate("p"), IdOf(base, delta, "new")),
            (std::vector<serve::NodeId>{a}));
}

/// Compaction, run by hand so a write can land between the pin and the
/// install: the fold covers seq <= 1, then seq 2 (naming "dave", unseen
/// by the fold, and "carol", which the fold moved into the base) must be
/// re-keyed into the new base's id space.
TEST(FoldTest, RekeysSurvivingEntryNamedDuringTheFold) {
  KnowledgeGraph oracle;
  oracle.AddTriple("alice", "knows", "bob", NodeKind::kEntity,
                   NodeKind::kEntity, kProv);
  const KgSnapshot base = KgSnapshot::Compile(oracle);
  MemDelta delta(base);
  const Mutation first = Up("alice", "knows", "carol");
  ApplyOne(delta, base, first, 1);
  ApplyToKg(&oracle, first);
  const MemDelta pinned = delta;  // the epoch the fold streams
  const Mutation during = Up("carol", "mentors", "dave");
  ApplyOne(delta, base, during, 2);
  ApplyToKg(&oracle, during);

  const KgSnapshot folded = FoldOverlay(OverlayView{base, pinned});
  EXPECT_TRUE(folded.FindNode("carol", NodeKind::kEntity).ok());
  EXPECT_FALSE(folded.FindNode("dave", NodeKind::kEntity).ok());
  MemDelta surviving = delta;
  surviving.TrimThrough(1);
  const MemDelta rekeyed = surviving.Rekey(base, folded);
  ASSERT_EQ(rekeyed.size(), 1u);
  const OverlayView view{folded, rekeyed};
  const auto carol = view.FindNode("carol", NodeKind::kEntity);
  const auto dave = view.FindNode("dave", NodeKind::kEntity);
  ASSERT_TRUE(carol.ok());
  ASSERT_TRUE(dave.ok());
  EXPECT_LT(*carol, folded.num_nodes());   // now a base id
  EXPECT_GE(*dave, folded.num_nodes());    // still a new name
  EXPECT_EQ(rekeyed.entries()[0].seq, 2u);

  const KgSnapshot rebuilt = KgSnapshot::Compile(oracle);
  const serve::QueryEngine engine(rebuilt);
  for (const serve::Query& q :
       {serve::Query::Neighborhood("carol"), serve::Query::Neighborhood("dave"),
        serve::Query::PointLookup("carol", "mentors"),
        serve::Query::TopKRelated("alice", 5)}) {
    EXPECT_EQ(serve::ExecuteQuery(view, q), engine.ExecuteUncached(q))
        << q.CacheKey();
  }
  EXPECT_EQ(FoldOverlay(view).Fingerprint(), rebuilt.Fingerprint());
}

TEST(FoldTest, FoldEqualsCompileAndDropsDeadVocabulary) {
  KnowledgeGraph oracle;
  oracle.AddTriple("alice", "knows", "bob", NodeKind::kEntity,
                   NodeKind::kEntity, kProv);
  oracle.AddTriple("bob", "likes", "jazz", NodeKind::kEntity,
                   NodeKind::kText, kProv);
  const KgSnapshot base = KgSnapshot::Compile(oracle);
  MemDelta delta(base);
  const std::vector<Mutation> log = {
      Rt("bob", "likes", "jazz", NodeKind::kEntity, NodeKind::kText),
      Up("aaron", "knows", "alice"), Up("zoe", "admires", "bob"),
      Rt("ghost", "haunts", "bob"), Up("bob", "knows", "Bob", NodeKind::kEntity,
                                       NodeKind::kText)};
  for (size_t i = 0; i < log.size(); ++i) {
    ApplyOne(delta, base, log[i], i + 1);
    ApplyToKg(&oracle, log[i]);
  }
  const KgSnapshot folded = FoldOverlay(OverlayView{base, delta});
  const KgSnapshot rebuilt = KgSnapshot::Compile(oracle);
  EXPECT_EQ(folded.Fingerprint(), rebuilt.Fingerprint());
  EXPECT_EQ(folded.Fingerprint(), serve::RecomputeFingerprint(folded));
  EXPECT_FALSE(folded.FindNode("jazz", NodeKind::kText).ok());
  EXPECT_FALSE(folded.FindNode("ghost", NodeKind::kEntity).ok());
  EXPECT_FALSE(folded.FindPredicate("likes").ok());
  EXPECT_FALSE(folded.FindPredicate("haunts").ok());
}

}  // namespace
}  // namespace kg::store
