#ifndef KGRAPH_SERVE_QUERY_BODY_H_
#define KGRAPH_SERVE_QUERY_BODY_H_

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "serve/query_engine.h"
#include "serve/snapshot.h"

namespace kg::serve {

// The one algorithm behind every query class, written once over a
// graph-access type `G`. `G` exposes KgSnapshot's read accessors —
// FindNode, FindPredicate, Objects, Subjects, OutEdges, InEdges,
// OutDegree, InDegree, NodeKindOf, NodeName, PredicateName — with the
// same id-space contracts (edge rows sorted, Objects/Subjects ascending;
// the degrees only size reservations, so an upper bound will do).
// KgSnapshot is one instance; store::OverlayView (a base snapshot plus
// an id-space delta) is the other, so the immutable engine and the
// versioned store cannot drift apart.

/// Sorted-unique nodes adjacent to `id` (either edge direction). Multiple
/// predicates between the same pair collapse to one adjacency.
template <typename G>
std::vector<NodeId> AdjacentNodes(const G& g, NodeId id) {
  std::vector<NodeId> out;
  out.reserve(g.OutDegree(id) + g.InDegree(id));
  for (const KgSnapshot::Edge& e : g.OutEdges(id)) out.push_back(e.second);
  for (const KgSnapshot::Edge& e : g.InEdges(id)) out.push_back(e.second);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

template <typename G>
std::string RenderNode(const G& g, NodeId id) {
  return RenderNodeName(g.NodeName(id), g.NodeKindOf(id));
}

template <typename G>
QueryResult PointLookupBody(const G& g, const Query& query) {
  const auto node = g.FindNode(query.node, query.node_kind);
  const auto pred = g.FindPredicate(query.predicate);
  if (!node.ok() || !pred.ok()) return {};
  QueryResult rows;
  for (NodeId o : g.Objects(*node, *pred)) rows.push_back(RenderNode(g, o));
  std::sort(rows.begin(), rows.end());
  return rows;
}

template <typename G>
QueryResult NeighborhoodBody(const G& g, const Query& query) {
  const auto node = g.FindNode(query.node, query.node_kind);
  if (!node.ok()) return {};
  QueryResult rows;
  rows.reserve(g.OutDegree(*node) + g.InDegree(*node));
  for (const KgSnapshot::Edge& e : g.OutEdges(*node)) {
    rows.push_back("out\t" + std::string(g.PredicateName(e.first)) + '\t' +
                   RenderNode(g, e.second));
  }
  for (const KgSnapshot::Edge& e : g.InEdges(*node)) {
    rows.push_back("in\t" + std::string(g.PredicateName(e.first)) + '\t' +
                   RenderNode(g, e.second));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

template <typename G>
QueryResult AttributeByTypeBody(const G& g, const Query& query) {
  const auto cls = g.FindNode(query.type_name, graph::NodeKind::kClass);
  const auto type_pred = g.FindPredicate(query.type_predicate);
  const auto attr_pred = g.FindPredicate(query.predicate);
  if (!cls.ok() || !type_pred.ok() || !attr_pred.ok()) return {};
  QueryResult rows;
  for (NodeId s : g.Subjects(*type_pred, *cls)) {
    const std::string subject = RenderNode(g, s);
    for (NodeId o : g.Objects(s, *attr_pred)) {
      rows.push_back(subject + '\t' + RenderNode(g, o));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

template <typename G>
QueryResult TopKRelatedBody(const G& g, const Query& query) {
  const auto center = g.FindNode(query.node, query.node_kind);
  if (!center.ok() || query.k == 0) return {};
  // Score every entity m by the number of distinct length-2 paths
  // center — n — m (shared neighbors), both edge directions, any
  // predicate. The center itself never appears in its own shelf.
  std::unordered_map<NodeId, size_t> score;
  for (NodeId n : AdjacentNodes(g, *center)) {
    if (n == *center) continue;
    for (NodeId m : AdjacentNodes(g, n)) {
      if (m == *center) continue;
      if (g.NodeKindOf(m) != graph::NodeKind::kEntity) continue;
      ++score[m];
    }
  }
  std::vector<std::pair<NodeId, size_t>> ranked(score.begin(), score.end());
  // Count desc, then name asc — scored nodes are all kEntity, whose names
  // are unique, so the name is a complete tie-break.
  std::sort(ranked.begin(), ranked.end(), [&g](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return g.NodeName(a.first) < g.NodeName(b.first);
  });
  if (ranked.size() > query.k) ranked.resize(query.k);
  QueryResult rows;
  rows.reserve(ranked.size());
  for (const auto& [m, count] : ranked) {
    rows.push_back(RenderNode(g, m) + '\t' + std::to_string(count));
  }
  return rows;
}

/// Answers `query` over `g`, uncached.
template <typename G>
QueryResult ExecuteQuery(const G& g, const Query& query) {
  switch (query.kind) {
    case QueryKind::kPointLookup:
      return PointLookupBody(g, query);
    case QueryKind::kNeighborhood:
      return NeighborhoodBody(g, query);
    case QueryKind::kAttributeByType:
      return AttributeByTypeBody(g, query);
    case QueryKind::kTopKRelated:
      return TopKRelatedBody(g, query);
  }
  return {};
}

}  // namespace kg::serve

#endif  // KGRAPH_SERVE_QUERY_BODY_H_
