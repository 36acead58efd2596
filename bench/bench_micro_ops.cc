// Micro-benchmarks (google-benchmark) for the primitive operations that
// dominate the paper's cost model: prefix maintenance (Window Extend /
// Migrate vs rebuild), set similarity, index probing and derived-entity
// expansion.
//
// This binary also hosts the allocation-discipline gate: it replaces the
// global allocator with a counting one, reports allocs/iter for the
// candidate-generation benchmarks, and — under
// `--assert-steady-state-allocs` — fails unless the second Extract call on
// a warm ExtractScratch performs zero heap allocations, for every filter
// strategy (DESIGN.md §10; wired into tools/check.sh as the `alloc` step).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <random>
#include <string_view>

#include "src/core/aeetes.h"
#include "src/core/candidate_generator.h"
#include "src/core/scratch.h"
#include "src/core/window.h"
#include "src/index/clustered_index.h"
#include "src/io/snapshot.h"
#include "src/sim/similarity.h"
#include "src/synonym/expander.h"
#include "src/text/token_set.h"
#include "tests/test_util.h"

namespace {

/// Every heap allocation in the process bumps this (test-only tooling —
/// the library itself never depends on it).
std::atomic<uint64_t> g_alloc_count{0};

uint64_t AllocationCount() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) std::abort();
  return p;
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align, size == 0 ? align : size) != 0) std::abort();
  return p;
}

}  // namespace

// Replace every form of the global allocator, so no allocation — from the
// library, the STL, or the benchmark harness — escapes the counter.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace aeetes {
namespace {

struct MicroWorld {
  MicroWorld() {
    std::mt19937_64 rng(7);
    world = testutil::MakeRandomWorld(rng, /*vocab=*/200,
                                      /*num_entities=*/300, /*num_rules=*/80,
                                      /*doc_len=*/1200);
    doc = Document::FromTokens(world.doc_tokens);
    index = ClusteredIndex::Build(*world.dd);
  }
  testutil::RandomWorld world;
  Document doc;
  std::unique_ptr<ClusteredIndex> index;
};

MicroWorld& World() {
  static MicroWorld* w = new MicroWorld();
  return *w;
}

void BM_WindowRebuild(benchmark::State& state) {
  auto& w = World();
  SlidingWindow win(w.doc, w.world.dd->token_dict());
  const size_t len = static_cast<size_t>(state.range(0));
  size_t p = 0;
  for (auto _ : state) {
    win.Reset(p, len);
    benchmark::DoNotOptimize(win.set_size());
    p = (p + 1) % (w.doc.size() - len);
  }
}
BENCHMARK(BM_WindowRebuild)->Arg(4)->Arg(8)->Arg(16);

void BM_WindowMigrate(benchmark::State& state) {
  auto& w = World();
  SlidingWindow win(w.doc, w.world.dd->token_dict());
  const size_t len = static_cast<size_t>(state.range(0));
  win.Reset(0, len);
  for (auto _ : state) {
    if (!win.Migrate()) win.Reset(0, len);
    benchmark::DoNotOptimize(win.set_size());
  }
}
BENCHMARK(BM_WindowMigrate)->Arg(4)->Arg(8)->Arg(16);

void BM_WindowExtend(benchmark::State& state) {
  auto& w = World();
  SlidingWindow win(w.doc, w.world.dd->token_dict());
  win.Reset(0, 1);
  size_t p = 0;
  for (auto _ : state) {
    if (!win.Extend()) {
      p = (p + 1) % (w.doc.size() - 32);
      win.Reset(p, 1);
    }
    benchmark::DoNotOptimize(win.set_size());
  }
}
BENCHMARK(BM_WindowExtend);

void BM_JaccardOnOrderedSets(benchmark::State& state) {
  auto& w = World();
  const DerivedDictionary& dd = *w.world.dd;
  const auto& dict = dd.token_dict();
  const size_t nd = dd.num_derived();
  size_t i = 0;
  for (auto _ : state) {
    const Span<TokenId> a = dd.ordered_set(static_cast<DerivedId>(i % nd));
    const Span<TokenId> b =
        dd.ordered_set(static_cast<DerivedId>((i * 7 + 1) % nd));
    benchmark::DoNotOptimize(JaccardOnOrderedSets(a, b, dict));
    ++i;
  }
}
BENCHMARK(BM_JaccardOnOrderedSets);

/// The pre-scratch API: a fresh scratch per call, so every per-window /
/// per-candidate buffer is reallocated. allocs/iter makes the churn
/// visible next to the Scratch variant below.
void BM_CandidateGeneration(benchmark::State& state) {
  auto& w = World();
  const auto strategy = static_cast<FilterStrategy>(state.range(0));
  const uint64_t allocs_before = AllocationCount();
  for (auto _ : state) {
    auto out = GenerateCandidates(strategy, w.doc, *w.world.dd, *w.index,
                                  0.8);
    benchmark::DoNotOptimize(out.candidates.size());
  }
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(AllocationCount() - allocs_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(FilterStrategyName(strategy));
}
BENCHMARK(BM_CandidateGeneration)->DenseRange(0, 3);

/// The scratch-backed hot path: after the first iteration warms the
/// scratch, allocs/iter is ~0 for every strategy.
void BM_CandidateGenerationScratch(benchmark::State& state) {
  auto& w = World();
  const auto strategy = static_cast<FilterStrategy>(state.range(0));
  ExtractScratch scratch;
  const uint64_t allocs_before = AllocationCount();
  for (auto _ : state) {
    FilterStats stats = GenerateCandidatesInto(
        strategy, w.doc, *w.world.dd, *w.index, 0.8, Metric::kJaccard, {},
        scratch);
    benchmark::DoNotOptimize(stats.candidates);
  }
  state.counters["allocs/iter"] = benchmark::Counter(
      static_cast<double>(AllocationCount() - allocs_before),
      benchmark::Counter::kAvgIterations);
  state.SetLabel(FilterStrategyName(strategy));
}
BENCHMARK(BM_CandidateGenerationScratch)->DenseRange(0, 3);

void BM_ExpandEntity(benchmark::State& state) {
  RuleSet rules;
  for (TokenId t = 1; t <= 6; ++t) {
    benchmark::DoNotOptimize(rules.Add({t}, {t + 100}).ok());
  }
  TokenSeq entity;
  for (TokenId t = 1; t <= 6; ++t) entity.push_back(t);
  const auto groups =
      SelectNonConflictGroups(FindApplicableRules(entity, rules));
  ExpanderOptions opts;
  opts.max_derived = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExpandEntity(entity, groups, opts).size());
  }
}
BENCHMARK(BM_ExpandEntity)->Arg(8)->Arg(64);

void BM_PrefixLength(benchmark::State& state) {
  size_t l = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PrefixLength(Metric::kJaccard, l, 0.8));
    l = l % 40 + 1;
  }
}
BENCHMARK(BM_PrefixLength);

/// `--assert-steady-state-allocs`: builds a full extractor, runs one
/// warm-up Extract per strategy on a shared scratch, then asserts the
/// second (steady-state) call allocates nothing. Exit 0 iff all four
/// strategies are allocation-free.
int RunSteadyStateAssert() {
  std::mt19937_64 rng(7);
  auto world = testutil::MakeRandomWorld(rng, /*vocab=*/200,
                                         /*num_entities=*/300,
                                         /*num_rules=*/80, /*doc_len=*/1200);
  const Document doc = Document::FromTokens(world.doc_tokens);
  auto built = Aeetes::FromDerivedDictionary(std::move(world.dd));
  AEETES_CHECK(built.ok());
  const Aeetes& aeetes = **built;

  int failures = 0;
  ExtractScratch scratch;
  for (const FilterStrategy strategy :
       {FilterStrategy::kSimple, FilterStrategy::kSkip,
        FilterStrategy::kDynamic, FilterStrategy::kLazy}) {
    auto warm = aeetes.ExtractIntoWithStrategy(scratch, doc, 0.8, strategy);
    AEETES_CHECK(warm.ok());
    const uint64_t before = AllocationCount();
    auto steady = aeetes.ExtractIntoWithStrategy(scratch, doc, 0.8, strategy);
    const uint64_t allocs = AllocationCount() - before;
    AEETES_CHECK(steady.ok());
    AEETES_CHECK_EQ(warm->verify_stats.matched, steady->verify_stats.matched);
    std::printf("steady-state %-7s matches=%llu heap allocations=%llu%s\n",
                FilterStrategyName(strategy),
                static_cast<unsigned long long>(steady->verify_stats.matched),
                static_cast<unsigned long long>(allocs),
                allocs == 0 ? "" : "  <-- FAIL");
    if (allocs != 0) ++failures;
  }
  if (failures > 0) {
    std::printf("FAIL: %d strategies allocate in steady state\n", failures);
    return 1;
  }
  std::printf("OK: steady-state Extract is allocation-free\n");
  return 0;
}

/// `--assert-snapshot-load-allocs`: saves snapshots of two worlds whose
/// entity counts differ 2x, loads each, and asserts the heap-allocation
/// count of the load is identical — i.e. loading allocates a fixed set of
/// wrapper objects (engine, dictionaries, gauges) and nothing per entity.
int RunSnapshotLoadAllocAssert() {
  auto snapshot_allocs = [](size_t num_entities, uint64_t seed) {
    std::mt19937_64 rng(seed);
    auto world = testutil::MakeRandomWorld(rng, /*vocab=*/200, num_entities,
                                           /*num_rules=*/80, /*doc_len=*/10);
    auto built = Aeetes::FromDerivedDictionary(std::move(world.dd));
    AEETES_CHECK(built.ok());
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("aeetes_alloc_" + std::to_string(num_entities) + ".snap"))
            .string();
    AEETES_CHECK(SaveSnapshot(**built, path).ok());

    const uint64_t before = AllocationCount();
    auto loaded = LoadSnapshot(path);
    const uint64_t allocs = AllocationCount() - before;
    AEETES_CHECK(loaded.ok());
    AEETES_CHECK_EQ((*loaded)->derived_dictionary().num_origins(),
                    num_entities);
    std::error_code ec;
    std::filesystem::remove(path, ec);
    return allocs;
  };

  const uint64_t small = snapshot_allocs(300, 7);
  const uint64_t large = snapshot_allocs(600, 7);
  std::printf("snapshot load allocations: 300 entities=%llu, "
              "600 entities=%llu\n",
              static_cast<unsigned long long>(small),
              static_cast<unsigned long long>(large));
  if (small != large) {
    std::printf("FAIL: snapshot load allocates per entity\n");
    return 1;
  }
  std::printf("OK: snapshot load allocation count is "
              "entity-count-independent\n");
  return 0;
}

}  // namespace
}  // namespace aeetes

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--assert-steady-state-allocs") {
      return aeetes::RunSteadyStateAssert();
    }
    if (std::string_view(argv[i]) == "--assert-snapshot-load-allocs") {
      return aeetes::RunSnapshotLoadAllocAssert();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
