#include "kgbench/world.h"

#include <array>
#include <utility>

namespace kgbench {

using kg::graph::KnowledgeGraph;
using kg::graph::NodeKind;
using kg::graph::Provenance;
using kg::serve::Query;
using kg::store::Mutation;

namespace {

enum Domain : size_t { kPerson = 0, kMovie = 1, kSong = 2, kNumDomains = 3 };

constexpr std::array<const char*, kNumDomains> kClassPrefix = {
    "Person_", "Movie_", "Song_"};
constexpr std::array<const char*, kNumDomains> kNodePrefix = {
    "person:", "movie:", "song:"};

// Four attribute predicates per domain: the point-lookup and typed-scan
// vocabulary.
const std::array<std::array<const char*, 4>, kNumDomains> kPredicates = {{
    {"name", "birth_year", "nationality", "acted_in"},
    {"title", "release_year", "genre", "directed_by"},
    {"title", "performed_by", "song_year", "song_genre"},
}};

constexpr size_t kPeople = 12000;
constexpr size_t kMovies = 8000;
constexpr size_t kSongs = 4000;
constexpr std::array<size_t, kNumDomains> kDomainSize = {kPeople, kMovies,
                                                         kSongs};
constexpr size_t kClassesPerDomain = 240;
constexpr double kQueryZipf = 1.05;
// Read mix; the remaining 50% are point lookups.
constexpr double kNeighborhoodShare = 0.25;
constexpr double kAttributeByTypeShare = 0.10;
constexpr double kTopKShare = 0.15;

constexpr size_t kNationalities = 500;
constexpr size_t kGenres = 200;
constexpr size_t kCastSize = 4;
constexpr size_t kRetractableHead = 1000;  // head people with retractable facts
constexpr size_t kMaxLiveUpserts = 512;     // upserts not yet retracted
// Role targets (cast, director, performer, acquaintances) are only mildly
// skewed, so hubs exist without one node dominating every top-k walk.
constexpr double kRoleZipf = 0.5;

// A per-(seed, entity, field) pseudo-random value: attribute values are
// pure functions of the seed, so the op generator can name base facts
// without holding the graph.
uint64_t Mix(uint64_t seed, uint64_t a, uint64_t b) {
  uint64_t z = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string NodeName(size_t domain, size_t id) {
  return kNodePrefix[domain] + std::to_string(id);
}

std::string ClassName(size_t domain, size_t cls) {
  return kClassPrefix[domain] + std::to_string(cls);
}

std::string Nationality(uint64_t seed, size_t person) {
  return "nat" + std::to_string(Mix(seed, person, 3) % kNationalities);
}

// "YYYY-M": ~900 distinct dates, so no date literal is a large hub.
std::string Date(uint64_t seed, size_t domain, size_t id) {
  const uint64_t h = Mix(seed, domain * 1000003 + id, 5);
  return std::to_string(1950 + h % 74) + "-" +
         std::to_string(1 + (h >> 16) % 12);
}

std::string Genre(const char* prefix, uint64_t seed, size_t domain,
                  size_t id) {
  return prefix + std::to_string(Mix(seed, domain * 1000003 + id, 7) % kGenres);
}

}  // namespace

KnowledgeGraph BuildWorldKg(uint64_t seed) {
  KnowledgeGraph kg;
  kg::Rng rng(seed);
  const kg::ZipfDistribution role_zipf(kPeople, kRoleZipf);
  const Provenance prov{"ground_truth", 1.0, 0};
  auto add_text = [&](const std::string& s, const char* p, std::string o) {
    kg.AddTriple(s, p, o, NodeKind::kEntity, NodeKind::kText, prov);
  };
  auto add_edge = [&](const std::string& s, const char* p,
                      const std::string& o) {
    kg.AddTriple(s, p, o, NodeKind::kEntity, NodeKind::kEntity, prov);
  };
  for (size_t d = 0; d < kNumDomains; ++d) {
    for (size_t i = 0; i < kDomainSize[d]; ++i) {
      const std::string node = NodeName(d, i);
      // Round-robin classes: every class of a domain has the same size
      // whatever the seed, so a typed scan costs the same in every run.
      kg.AddTriple(node, "type", ClassName(d, i % kClassesPerDomain),
                   NodeKind::kEntity, NodeKind::kClass, prov);
      switch (d) {
        case kPerson: {
          add_text(node, "name", "Name p" + std::to_string(i));
          add_text(node, "birth_year", Date(seed, d, i));
          add_text(node, "nationality", Nationality(seed, i));
          add_edge(node, "knows", NodeName(kPerson, role_zipf.Sample(rng)));
          break;
        }
        case kMovie: {
          add_text(node, "title", "Title m" + std::to_string(i));
          add_text(node, "release_year", Date(seed, d, i));
          add_text(node, "genre", Genre("genre", seed, d, i));
          add_edge(node, "directed_by",
                   NodeName(kPerson, role_zipf.Sample(rng)));
          for (size_t a = 0; a < kCastSize; ++a) {
            add_edge(NodeName(kPerson, role_zipf.Sample(rng)), "acted_in",
                     node);
          }
          break;
        }
        default: {
          add_text(node, "title", "Title s" + std::to_string(i));
          add_edge(node, "performed_by",
                   NodeName(kPerson, role_zipf.Sample(rng)));
          add_text(node, "song_year", Date(seed, d, i));
          add_text(node, "song_genre", Genre("sgenre", seed, d, i));
          break;
        }
      }
    }
  }
  return kg;
}

OpStream::OpStream(uint64_t write_every, uint64_t seed, uint64_t stream)
    : write_every_(write_every),
      rng_(kg::Rng(seed).Split(stream + 1)),
      class_zipf_(kClassesPerDomain, kQueryZipf) {
  for (size_t n : kDomainSize) {
    entity_zipf_.emplace_back(n, kQueryZipf);
    domain_weights_.push_back(static_cast<double>(n));
  }
  for (size_t i = kRetractableHead; i-- > 0;) {
    base_retractable_.push_back(Mutation::Retract(
        NodeName(kPerson, i), "nationality", Nationality(seed, i),
        NodeKind::kEntity, NodeKind::kText));
  }
}

void OpStream::Next(size_t n, std::vector<Op>* out) {
  for (size_t i = 0; i < n; ++i) {
    Op op;
    op.is_write = write_every_ != 0 && ++ops_ % write_every_ == 0;
    if (op.is_write) {
      op.mutation = NextWrite();
    } else {
      op.query = NextRead();
    }
    out->push_back(std::move(op));
  }
}

std::string OpStream::SampleNode(size_t domain) {
  return NodeName(domain, entity_zipf_[domain].Sample(rng_));
}

Query OpStream::NextRead() {
  const size_t domain = rng_.Weighted(domain_weights_);
  const char* pred = kPredicates[domain][rng_.UniformIndex(4)];
  const double r = rng_.UniformDouble();
  if (r < kNeighborhoodShare) return Query::Neighborhood(SampleNode(domain));
  if (r < kNeighborhoodShare + kAttributeByTypeShare) {
    return Query::AttributeByType(
        ClassName(domain, class_zipf_.Sample(rng_)), pred);
  }
  if (r < kNeighborhoodShare + kAttributeByTypeShare + kTopKShare) {
    return Query::TopKRelated(SampleNode(domain),
                              5 * (1 + rng_.UniformIndex(4)));
  }
  return Query::PointLookup(SampleNode(domain), pred);
}

Mutation OpStream::NextWrite() {
  const double roll = rng_.UniformDouble();
  const bool live_full = live_upserts_.size() >= kMaxLiveUpserts;
  if (live_full ||
      (roll < 0.25 && !(live_upserts_.empty() && base_retractable_.empty()))) {
    // Retract an earlier upsert half the time (always once the live set
    // is full, which keeps the graph's size stationary), else a base fact
    // of a head person; each named triple is retracted once.
    const bool from_live =
        live_full || (!live_upserts_.empty() &&
                      (base_retractable_.empty() || rng_.Bernoulli(0.5)));
    std::vector<Mutation>& pool = from_live ? live_upserts_ : base_retractable_;
    const size_t i = rng_.UniformIndex(pool.size());
    std::swap(pool[i], pool.back());
    Mutation m = std::move(pool.back());
    pool.pop_back();
    if (from_live) {
      m = Mutation::Retract(m.subject, m.predicate, m.object, m.subject_kind,
                            m.object_kind);
    }
    return m;
  }
  Provenance prov{"live_feed", 0.9, static_cast<int64_t>(tag_counter_)};
  Mutation m;
  if (roll < 0.6) {
    m = Mutation::Upsert(SampleNode(kPerson), "knows", SampleNode(kPerson),
                         NodeKind::kEntity, NodeKind::kEntity, prov);
  } else {
    m = Mutation::Upsert(SampleNode(kPerson), "tag",
                         "v" + std::to_string(tag_counter_),
                         NodeKind::kEntity, NodeKind::kText, prov);
  }
  ++tag_counter_;
  live_upserts_.push_back(m);
  return m;
}

void ApplyToKg(KnowledgeGraph* kg, const Mutation& m) {
  if (m.op == kg::store::MutationOp::kUpsert) {
    kg->AddTriple(m.subject, m.predicate, m.object, m.subject_kind,
                  m.object_kind, m.prov);
    return;
  }
  const auto s = kg->FindNode(m.subject, m.subject_kind);
  const auto p = kg->FindPredicate(m.predicate);
  const auto o = kg->FindNode(m.object, m.object_kind);
  if (!s.ok() || !p.ok() || !o.ok()) return;
  const kg::graph::TripleId id = kg->FindTriple(*s, *p, *o);
  if (id != kg::graph::kInvalidTriple) kg->RemoveTriple(id);
}

uint64_t AnswerHash(const kg::serve::QueryResult& rows) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix_byte = [&h](unsigned char c) {
    h ^= c;
    h *= 0x100000001b3ULL;
  };
  for (const std::string& row : rows) {
    for (char c : row) mix_byte(static_cast<unsigned char>(c));
    mix_byte(0xff);  // row separator: no row contains 0xff
  }
  return h ^ rows.size();
}

size_t UserBytes(const Mutation& m) {
  return m.subject.size() + m.predicate.size() + m.object.size();
}

}  // namespace kgbench
