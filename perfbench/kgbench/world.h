// The benchmark's seeded inputs: one synthetic entity KG per seed, a
// Zipf-popular four-class read mix over it, and a Zipf-head write
// stream with retractions. The program under test only ever sees the
// generated graph, queries and mutations.

#ifndef KGBENCH_WORLD_H_
#define KGBENCH_WORLD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/knowledge_graph.h"
#include "serve/query_engine.h"
#include "store/wal.h"

namespace kgbench {

/// The graph for `seed`: same seed, same triples in the same order.
/// 24,000 entities (people, movies, songs), each domain split over 240
/// equal classes, so a typed attribute scan and the class hub a top-k
/// walk crosses stay 17-50 members wide while the graph is large
/// enough that building it dominates set-up time. Degrees and class
/// sizes do not depend on the seed.
kg::graph::KnowledgeGraph BuildWorldKg(uint64_t seed);

/// One benchmark operation: a read, or a write of one mutation.
struct Op {
  bool is_write = false;
  kg::serve::Query query;
  kg::store::Mutation mutation;
};

/// Deterministic op generator. `stream` separates independent client
/// streams of one seed. Every `write_every`-th op is a write (0: none),
/// so any `write_every * n` consecutive ops hold exactly n writes. Reads
/// are Zipf-popular (exponent 1.05) over entities: 50% point lookups,
/// 25% neighborhoods, 10% typed attribute scans, 15% top-k related.
/// Writes are Zipf-head upserts ("knows" edges and fresh "tag" literals)
/// and retractions of earlier upserts or of base facts of head entities;
/// which triple a retraction names depends only on the stream, never on
/// timing.
class OpStream {
 public:
  OpStream(uint64_t write_every, uint64_t seed, uint64_t stream);

  /// Appends the next `n` ops to `*out`.
  void Next(size_t n, std::vector<Op>* out);

 private:
  kg::serve::Query NextRead();
  kg::store::Mutation NextWrite();
  std::string SampleNode(size_t domain);

  uint64_t write_every_;
  uint64_t ops_ = 0;
  kg::Rng rng_;
  std::vector<kg::ZipfDistribution> entity_zipf_;  // one per domain
  std::vector<double> domain_weights_;             // by domain size
  kg::ZipfDistribution class_zipf_;
  uint64_t tag_counter_ = 0;
  /// Upserts not yet retracted (at most 512).
  std::vector<kg::store::Mutation> live_upserts_;
  /// Base "nationality" facts of head people, consumed by retractions.
  std::vector<kg::store::Mutation> base_retractable_;
};

/// Applies `m` to `kg` with the store's semantics (upsert appends
/// provenance to an existing triple; retracting an absent one is a
/// no-op). The rebuild oracle's write path.
void ApplyToKg(kg::graph::KnowledgeGraph* kg, const kg::store::Mutation& m);

/// Order-sensitive 64-bit digest of an answer's rows.
uint64_t AnswerHash(const kg::serve::QueryResult& rows);

/// Mutated, schema-respecting bytes a mutation carries (subject,
/// predicate and object names): the denominator of WAL amplification.
size_t UserBytes(const kg::store::Mutation& m);

}  // namespace kgbench

#endif  // KGBENCH_WORLD_H_
