// Robustness tests: the serialized-trace deserializer must reject (by
// throwing, never crashing or silently mis-reading) arbitrarily
// corrupted and truncated inputs, and every merge plan — parallel,
// sequential, folds, random pairings — must write the same bytes.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "cypress/decompress.hpp"
#include "driver/pipeline.hpp"
#include "support/rng.hpp"

namespace cypress::core {
namespace {

std::vector<uint8_t> makeTrace(int procs) {
  driver::Options opts;
  opts.procs = procs;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  return driver::mergeCypress(run).serialize();
}

std::vector<trace::Event> contentOnly(std::vector<trace::Event> ev) {
  for (auto& e : ev) {
    e.computeNs = 0;
    e.durationNs = 0;
  }
  return ev;
}

TEST(Robustness, TruncatedTraceThrows) {
  const auto bytes = makeTrace(4);
  for (size_t cut : {size_t{0}, size_t{1}, size_t{4}, bytes.size() / 4,
                     bytes.size() / 2, bytes.size() - 1}) {
    std::vector<uint8_t> truncated(bytes.begin(),
                                   bytes.begin() + static_cast<ssize_t>(cut));
    cst::Tree tree;
    EXPECT_ANY_THROW({
      MergedCtt m = MergedCtt::deserializeWithTree(truncated, tree);
      // Some truncations may deserialize structurally; decompression
      // must then catch the inconsistency.
      for (int r = 0; r < 4; ++r) decompressRank(m, r);
    }) << "cut at " << cut;
  }
}

TEST(Robustness, BitFlippedTraceNeverCrashes) {
  const auto bytes = makeTrace(4);
  Rng rng(2024);
  int rejected = 0, survived = 0;
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> mutated = bytes;
    // Flip 1-4 random bits.
    const int flips = static_cast<int>(rng.range(1, 4));
    for (int f = 0; f < flips; ++f) {
      const size_t pos = rng.below(mutated.size());
      mutated[pos] ^= static_cast<uint8_t>(1u << rng.below(8));
    }
    try {
      cst::Tree tree;
      MergedCtt m = MergedCtt::deserializeWithTree(mutated, tree);
      for (int r = 0; r < 4; ++r) decompressRank(m, r);
      ++survived;  // flip hit a benign field (e.g. a time statistic)
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  // Most corruption must be detected; all of it must be exception-safe.
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(rejected + survived, 300);
}

TEST(Robustness, ParallelMergeIdenticalToSequential) {
  driver::Options opts;
  opts.procs = 32;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("MG", opts);
  std::vector<const Ctt*> ctts;
  for (const auto& r : run.cypress) ctts.push_back(&r->ctt());

  MergedCtt seq = mergeAll(ctts, nullptr, 1);
  MergedCtt par = mergeAll(ctts, nullptr, 4);
  EXPECT_EQ(seq.serialize(), par.serialize());
  for (int r = 0; r < opts.procs; ++r) {
    EXPECT_EQ(contentOnly(decompressRank(seq, r)),
              contentOnly(decompressRank(par, r)));
  }
}

// The paper's parallel merge (§IV-B) as a plan: the binary reduction
// tree, written out level by level, level k+1 node i = node(k, 2i) ⊕
// node(k, 2i+1), an odd last node carried up.
MergedCtt levelOrderMerge(const std::vector<const Ctt*>& ctts) {
  std::vector<MergedCtt> level;
  for (size_t r = 0; r < ctts.size(); ++r)
    level.push_back(MergedCtt::fromCtt(*ctts[r], static_cast<int>(r)));
  while (level.size() > 1) {
    std::vector<MergedCtt> next;
    for (size_t i = 0; i + 1 < level.size(); i += 2) {
      level[i].absorb(std::move(level[i + 1]));
      next.push_back(std::move(level[i]));
    }
    if (level.size() % 2 == 1) next.push_back(std::move(level.back()));
    level = std::move(next);
  }
  return std::move(level.front());
}

TEST(Robustness, EveryMergePlanSerializesIdentically) {
  // Jittered runs: every rank's time statistics differ. absorb is a
  // union of equivalence classes over exact integer statistics, so the
  // level-order tree, both folds, a random pairing and mergeAll at any
  // thread count all write the same bytes.
  driver::Options opts;
  opts.withRaw = false;
  opts.withScala = false;
  opts.withScala2 = false;
  for (const auto& [workload, procs] :
       {std::pair{"JACOBI", 100}, std::pair{"LU", 128}, std::pair{"BT", 100}}) {
    opts.procs = procs;
    driver::RunOutput run = driver::runWorkload(workload, opts);
    std::vector<const Ctt*> all;
    for (const auto& r : run.cypress) all.push_back(&r->ctt());
    auto leaf = [&](size_t r) {
      return MergedCtt::fromCtt(*all[r], static_cast<int>(r));
    };
    for (size_t p : {1, 2, 3, 5, 6, 7, 9, 17, 100}) {
      SCOPED_TRACE(std::string(workload) + " P=" + std::to_string(p));
      const std::vector<const Ctt*> ctts(all.begin(),
                                         all.begin() + static_cast<std::ptrdiff_t>(p));
      const auto expected = levelOrderMerge(ctts).serialize();

      MergedCtt left = leaf(0);  // ((0 ⊕ 1) ⊕ 2) ⊕ ...
      for (size_t r = 1; r < p; ++r) left.absorb(leaf(r));
      EXPECT_EQ(left.serialize(), expected);

      MergedCtt right = leaf(p - 1);  // 0 ⊕ (1 ⊕ (2 ⊕ ...))
      for (size_t r = p - 1; r-- > 0;) {
        MergedCtt m = leaf(r);
        m.absorb(std::move(right));
        right = std::move(m);
      }
      EXPECT_EQ(right.serialize(), expected);

      Rng rng(p);  // random pairs, either operand on the left
      std::vector<MergedCtt> pool;
      for (size_t r = 0; r < p; ++r) pool.push_back(leaf(r));
      while (pool.size() > 1) {
        const size_t i = rng.below(pool.size());
        size_t j = rng.below(pool.size() - 1);
        if (j >= i) ++j;
        pool[i].absorb(std::move(pool[j]));
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(j));
      }
      EXPECT_EQ(pool.front().serialize(), expected);

      for (int threads : {1, 2, 3, 4, 8})
        EXPECT_EQ(mergeAll(ctts, nullptr, threads).serialize(), expected)
            << "threads=" << threads;
    }
  }
}

TEST(Robustness, MergeAllOverSurvivorsIsTheRankOrderFold) {
  // Survivor labels with gaps (a salvaged run): at 4 and 8 threads a
  // lane cut falls between ranks 4 and 7, next to the gap.
  driver::Options opts;
  opts.procs = 24;
  opts.withRaw = false;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  std::vector<const Ctt*> ctts;
  std::vector<int> labels;
  for (int r = 0; r < opts.procs; ++r) {
    if (r == 5 || r == 6 || r == 12 || r == 17) continue;
    ctts.push_back(&run.cypress[static_cast<size_t>(r)]->ctt());
    labels.push_back(r);
  }
  ASSERT_EQ(labels[4], 4);
  ASSERT_EQ(labels[5], 7);  // the cut at index 20·1/4 = 20·2/8 = 5

  MergedCtt fold(*run.cst);
  for (size_t i = 0; i < ctts.size(); ++i) fold.absorb(*ctts[i], labels[i]);
  const auto expected = fold.serialize();
  RankSet covered;
  for (int g = 0; g < run.cst->numNodes(); ++g)
    for (const LeafEntry& e : fold.leafEntries(g)) covered.unite(e.ranks);
  EXPECT_EQ(covered.ranks(), std::vector<int32_t>(labels.begin(), labels.end()));
  for (int threads : {1, 2, 3, 4, 8})
    EXPECT_EQ(mergeAll(ctts, nullptr, threads, &labels).serialize(), expected)
        << "threads=" << threads;
}

// A merged trace points into its run's CST, so mergeCypress accepts a
// run that outlives the call but refuses a temporary one.
template <typename Run>
concept MergeableRun =
    requires { driver::mergeCypress(std::declval<Run>()); };
static_assert(MergeableRun<const driver::RunOutput&>);
static_assert(!MergeableRun<driver::RunOutput>);

TEST(Robustness, TimingClassesOfOneContentRoundTrip) {
  // BT's rank groups differ in compute time: at some vertex, entries
  // with equal records fall in different timing classes. The trace
  // writes their content once; reading it back restores every entry.
  driver::Options opts;
  opts.procs = 100;
  opts.withRaw = false;
  opts.withScala = false;
  opts.withScala2 = false;
  const driver::RunOutput run = driver::runWorkload("BT", opts);
  const MergedCtt m = driver::mergeCypress(run);
  const auto bytes = m.serialize();
  cst::Tree tree;
  const MergedCtt back = MergedCtt::deserializeWithTree(bytes, tree);
  EXPECT_EQ(back.serialize(), bytes);
  size_t shared = 0;
  for (int g = 0; g < m.cst().numNodes(); ++g) {
    const auto& a = m.leafEntries(g);
    const auto& b = back.leafEntries(g);
    ASSERT_EQ(a.size(), b.size()) << "gid " << g;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].ranks, b[i].ranks);
      EXPECT_EQ(a[i].execOrdinals, b[i].execOrdinals);
      ASSERT_EQ(a[i].records.size(), b[i].records.size());
      for (size_t k = 0; k < a[i].records.size(); ++k) {
        const CommRecord& x = a[i].records[k];
        const CommRecord& y = b[i].records[k];
        EXPECT_TRUE(x.sameContent(y));
        EXPECT_EQ(x.duration, y.duration);
        EXPECT_EQ(x.compute, y.compute);
      }
      for (size_t j = 0; j < i; ++j) {
        if (a[j].execOrdinals != a[i].execOrdinals ||
            a[j].records.size() != a[i].records.size())
          continue;
        bool same = true;
        for (size_t k = 0; k < a[i].records.size(); ++k)
          same = same && a[j].records[k].sameContent(a[i].records[k]);
        if (same) {
          ++shared;
          break;
        }
      }
    }
  }
  EXPECT_GT(shared, 0u) << "no vertex holds two timing classes of one content";
}

TEST(Robustness, OfflineMergeFromPerProcessFiles) {
  // The paper's deployment model: each process writes its compressed
  // trace at finalize; the merge runs post-mortem. Serializing every
  // per-process CTT, reading it back and merging must be identical to
  // merging in memory.
  driver::Options opts;
  opts.procs = 8;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);

  std::vector<std::vector<uint8_t>> files;
  for (const auto& rec : run.cypress) files.push_back(rec->ctt().serialize());

  std::vector<Ctt> restored;
  restored.reserve(files.size());
  for (const auto& f : files) restored.push_back(Ctt::deserialize(f, *run.cst));
  std::vector<const Ctt*> ptrs;
  for (const auto& c : restored) ptrs.push_back(&c);

  MergedCtt offline = mergeAll(ptrs);
  MergedCtt direct = driver::mergeCypress(run);
  EXPECT_EQ(offline.serialize(), direct.serialize());
}

TEST(Robustness, PerProcessFileRejectsWrongTree) {
  driver::Options opts;
  opts.procs = 2;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  auto bytes = run.cypress[0]->ctt().serialize();

  driver::RunOutput other = driver::runWorkload("EP", opts);
  EXPECT_THROW(Ctt::deserialize(bytes, *other.cst), Error);
}

enum class Field { LoopCounts, Taken, LeafExec, Records };

// `c` as CYPP bytes, except that vertex `to` also carries vertex
// `from`'s payload `field`.
std::vector<uint8_t> transplant(const Ctt& c, Field field, int from, int to) {
  ByteWriter w;
  w.str("CYPP");
  const int n = c.cst().numNodes();
  w.uv(static_cast<uint64_t>(n));
  for (int g = 0; g < n; ++g) {
    auto src = [&](Field f) { return f == field && g == to ? from : g; };
    c.loopCounts(src(Field::LoopCounts)).serialize(w);
    c.taken(src(Field::Taken)).serialize(w);
    c.leafExec(src(Field::LeafExec)).serialize(w);
    const auto& recs = c.records(src(Field::Records));
    w.uv(recs.size());
    for (const CommRecord& r : recs) r.serialize(w);
  }
  return w.take();
}

TEST(Robustness, PerProcessFileRejectsPayloadOnTheWrongKind) {
  driver::Options opts;
  opts.procs = 2;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  const Ctt& ctt = run.cypress[0]->ctt();
  const cst::Tree& tree = *run.cst;
  auto firstWith = [&](auto has) {
    for (int g = 0; g < tree.numNodes(); ++g)
      if (has(g)) return g;
    return -1;
  };
  const int loop = firstWith([&](int g) { return !ctt.loopCounts(g).empty(); });
  const int branch = firstWith([&](int g) { return !ctt.taken(g).empty(); });
  const int leaf = firstWith([&](int g) { return !ctt.records(g).empty(); });
  ASSERT_GE(loop, 0);
  ASSERT_GE(branch, 0);
  ASSERT_GE(leaf, 0);

  // The untouched re-encoding is the file itself.
  EXPECT_EQ(transplant(ctt, Field::Records, leaf, leaf), ctt.serialize());

  struct Case {
    Field field;
    int from, to;
    std::string message;
  };
  const Case cases[] = {
      {Field::LoopCounts, loop, branch,
       "loop counts on gid " + std::to_string(branch) + " (branch)"},
      {Field::Taken, branch, leaf,
       "branch outcomes on gid " + std::to_string(leaf) + " (comm)"},
      {Field::LeafExec, leaf, 0, "leaf ordinals on gid 0 (root)"},
      {Field::Records, leaf, loop,
       "comm records on gid " + std::to_string(loop) + " (loop)"},
  };
  for (const Case& c : cases) {
    const auto bytes = transplant(ctt, c.field, c.from, c.to);
    try {
      Ctt::deserialize(bytes, tree);
      ADD_FAILURE() << "accepted: " << c.message;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << e.what();
    }
  }
}

TEST(Robustness, CursorRejectsPayloadOnTheWrongKind) {
  // The cursor keeps one array per vertex kind, so a loop payload on a
  // vertex that is not a loop has no cursor to be walked by; it must be
  // rejected, not silently dropped. Re-read a JACOBI trace against a
  // tree whose loop vertex was turned into a call vertex.
  driver::Options opts;
  opts.procs = 2;
  opts.withScala = false;
  opts.withScala2 = false;
  driver::RunOutput run = driver::runWorkload("JACOBI", opts);
  const std::vector<uint8_t> bytes = driver::mergeCypress(run).serialize();
  int loop = -1;
  for (int g = 0; g < run.cst->numNodes() && loop < 0; ++g)
    if (run.cst->byGid(g)->kind == cst::NodeKind::Loop) loop = g;
  ASSERT_GE(loop, 0);

  // Node `gid` opens with the gid-th '(' of the pre-order text, followed
  // by its kind number.
  std::string text = run.cst->toText();
  size_t at = 0;
  for (int g = 0; g <= loop; ++g) at = text.find('(', at) + 1;
  ASSERT_EQ(text[at], '0' + static_cast<int>(cst::NodeKind::Loop));
  text[at] = static_cast<char>('0' + static_cast<int>(cst::NodeKind::Call));
  const cst::Tree altered = cst::Tree::fromText(text);
  ASSERT_EQ(altered.byGid(loop)->kind, cst::NodeKind::Call);

  const MergedCtt m = MergedCtt::deserialize(bytes, altered);
  try {
    decompressRank(m, 0);
    ADD_FAILURE() << "accepted a loop payload on a call vertex";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("loop activations on gid " +
                                         std::to_string(loop) + " (call)"),
              std::string::npos)
        << e.what();
  }
}

TEST(Robustness, DecompressUnknownRankFailsLoudly) {
  const auto bytes = makeTrace(4);
  cst::Tree tree;
  MergedCtt m = MergedCtt::deserializeWithTree(bytes, tree);
  // Rank 17 never ran: decompression must not fabricate events.
  EXPECT_THROW(decompressRank(m, 17), Error);
}

}  // namespace
}  // namespace cypress::core
