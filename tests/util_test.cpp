// Unit tests for ct_util: PRNG, matrices, stats, bitsets, pools, CSV, CLI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/ascii.hpp"
#include "util/bitset.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/crc32c.hpp"
#include "util/epoch.hpp"
#include "util/flat_matrix.hpp"
#include "util/lru_cache.hpp"
#include "util/prng.hpp"
#include "util/stats.hpp"
#include "util/synchronized_lru.hpp"
#include "util/thread_pool.hpp"
#include "util/varint.hpp"

namespace ct {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(CT_CHECK(false), CheckFailure);
  try {
    CT_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Prng, DeterministicAcrossInstances) {
  Prng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Prng, DifferentSeedsDiffer) {
  Prng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 4);
}

TEST(Prng, UniformRespectsBounds) {
  Prng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Prng, UniformCoversRange) {
  Prng rng(9);
  std::map<std::uint64_t, int> histogram;
  for (int i = 0; i < 5000; ++i) ++histogram[rng.uniform(0, 9)];
  EXPECT_EQ(histogram.size(), 10u);
  for (const auto& [value, count] : histogram) {
    EXPECT_GT(count, 300) << "value " << value << " under-represented";
  }
}

TEST(Prng, RealInUnitInterval) {
  Prng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double r = rng.real();
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(Prng, ChanceExtremes) {
  Prng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Prng, SplitStreamsAreIndependent) {
  Prng parent(42);
  Prng child = parent.split();
  // The child stream must not replicate the parent's continuation.
  Prng parent_copy(42);
  (void)parent_copy.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (child() == parent_copy());
  EXPECT_LT(equal, 4);
}

TEST(FlatMatrix, RoundTripAndGrow) {
  FlatMatrix<int> m(2, 3, 7);
  EXPECT_EQ(m(1, 2), 7);
  m(0, 1) = 5;
  m.grow(4, 4);
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m(0, 1), 5);
  EXPECT_EQ(m(1, 2), 7);
  EXPECT_EQ(m(3, 3), 0);
}

TEST(FlatMatrix, GrowIsNoOpWhenSmaller) {
  FlatMatrix<int> m(3, 3, 1);
  m.grow(2, 2);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 3u);
}

TEST(OnlineStats, MatchesClosedForm) {
  OnlineStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats whole, left, right;
  Prng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.real() * 100;
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
}

TEST(Summary, PercentilesOfKnownSample) {
  const Summary s = Summary::of({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.p25, 3.25);
  EXPECT_DOUBLE_EQ(s.p75, 7.75);
}

TEST(DynBitset, SetTestCount) {
  DynBitset b(130);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(DynBitset, OrWith) {
  DynBitset a(100), b(100);
  a.set(3);
  b.set(97);
  a.or_with(b);
  EXPECT_TRUE(a.test(3));
  EXPECT_TRUE(a.test(97));
  EXPECT_EQ(a.count(), 2u);
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_NE(cache.get(1), nullptr);  // 1 is now most-recent
  cache.put(3, 30);                  // evicts 2
  EXPECT_EQ(cache.get(2), nullptr);
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
}

TEST(LruCache, PutOverwrites) {
  LruCache<int, int> cache(4);
  cache.put(1, 10);
  cache.put(1, 11);
  EXPECT_EQ(*cache.get(1), 11);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  ThreadPool pool(4);
  parallel_for_index(pool, hits.size(),
                     [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, WaitIdleAfterManySubmits) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ShutdownDrainsThenRejects) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&ran] { ++ran; });
  }
  EXPECT_FALSE(pool.stopped());
  pool.shutdown();
  EXPECT_EQ(ran.load(), 32);
  EXPECT_TRUE(pool.stopped());
  pool.shutdown();  // idempotent
  EXPECT_THROW(pool.submit([] {}), CheckFailure);
}

TEST(ThreadPool, TrySubmitRacingShutdownRunsExactlyTheAccepted) {
  // The try_submit contract under a live race: accepted => the task runs
  // before shutdown() returns; rejected => it never runs. Producers hammer
  // from foreign threads while the owner shuts the pool down mid-stream —
  // the accepted and executed counts must agree exactly. Run under TSan in
  // CI, this also validates the queue/worker synchronization.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(2);
    std::atomic<int> accepted{0};
    std::atomic<int> ran{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> producers;
    for (int w = 0; w < 4; ++w) {
      producers.emplace_back([&pool, &accepted, &ran, &go] {
        while (!go.load()) {
        }
        for (int i = 0; i < 500; ++i) {
          if (pool.try_submit([&ran] { ran.fetch_add(1); })) {
            accepted.fetch_add(1);
          }
        }
      });
    }
    go.store(true);
    pool.shutdown();
    // Every accepted task has executed by the time shutdown() returns. A
    // producer may not have counted an acceptance yet, so compare once
    // they have all joined.
    const int ran_at_shutdown = ran.load();
    for (std::thread& p : producers) p.join();
    // Late producers were all refused, never run after shutdown and never
    // dropped silently.
    EXPECT_EQ(ran_at_shutdown, accepted.load()) << "round " << round;
    EXPECT_EQ(ran.load(), ran_at_shutdown) << "round " << round;
    EXPECT_FALSE(pool.try_submit([&ran] { ran.fetch_add(1); }));
  }
}

TEST(ThreadPool, ConcurrentShutdownCallersAllObserveTheDrain) {
  // shutdown() from several threads at once: every caller must block until
  // the drain completes, so each observes "no task running, none pending".
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&ran] { ran.fetch_add(1); });
  }
  std::vector<std::thread> closers;
  for (int w = 0; w < 4; ++w) {
    closers.emplace_back([&pool, &ran] {
      pool.shutdown();
      EXPECT_EQ(ran.load(), 64);
      EXPECT_TRUE(pool.stopped());
    });
  }
  for (std::thread& c : closers) c.join();
  EXPECT_EQ(ran.load(), 64);
}

TEST(SynchronizedLru, BasicPutGetEvict) {
  SynchronizedLruCache<int, std::string> cache(2);
  EXPECT_EQ(cache.capacity(), 2u);
  cache.put(1, "one");
  cache.put(2, "two");
  ASSERT_TRUE(cache.get(1).has_value());
  EXPECT_EQ(*cache.get(1), "one");
  cache.put(3, "three");  // evicts 2 (1 was touched more recently)
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get(1).has_value());
}

TEST(SynchronizedLru, ConcurrentMixedAccessIsSafe) {
  // Hammer one small cache from several threads; under TSan this validates
  // the locking (the raw LruCache mutates recency order even on get()).
  SynchronizedLruCache<int, int> cache(16);
  std::vector<std::thread> threads;
  std::atomic<int> hits{0};
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&cache, &hits, w] {
      for (int i = 0; i < 2000; ++i) {
        const int key = (w * 7 + i) % 32;
        if (const auto v = cache.get(key)) {
          EXPECT_EQ(*v, key * 3);
          ++hits;
        } else {
          cache.put(key, key * 3);
        }
        if (i % 500 == 0 && w == 0) cache.clear();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.size(), cache.capacity());
  EXPECT_GT(hits.load(), 0);
}

TEST(Epoch, RetireDefersUntilPinnedReaderUnpins) {
  util::EpochDomain domain;
  bool reclaimed = false;
  {
    const util::EpochDomain::Guard guard = domain.pin();
    EXPECT_TRUE(guard.pinned());
    domain.retire([&reclaimed] { reclaimed = true; });
    EXPECT_EQ(domain.limbo_size(), 1u);
    // The reader pinned BEFORE the retire must hold the entry in limbo.
    EXPECT_EQ(domain.collect(), 0u);
    EXPECT_FALSE(reclaimed);
  }
  EXPECT_EQ(domain.collect(), 1u);
  EXPECT_TRUE(reclaimed);
  EXPECT_EQ(domain.limbo_size(), 0u);
}

TEST(Epoch, RetireWithNoReadersIsReclaimedPromptly) {
  util::EpochDomain domain;
  int runs = 0;
  domain.retire([&runs] { ++runs; });
  domain.retire([&runs] { ++runs; });
  domain.collect();
  EXPECT_EQ(runs, 2);
  EXPECT_EQ(domain.limbo_size(), 0u);
}

TEST(Epoch, NestedPinsKeepTheOlderStamp) {
  util::EpochDomain domain;
  bool reclaimed = false;
  auto outer = domain.pin();
  domain.retire([&reclaimed] { reclaimed = true; });
  {
    // The inner pin reuses the thread's slot and must NOT overwrite the
    // outer (older) stamp — dropping it must not release the entry.
    const util::EpochDomain::Guard inner = domain.pin();
    EXPECT_TRUE(inner.pinned());
  }
  EXPECT_EQ(domain.collect(), 0u);
  EXPECT_FALSE(reclaimed);
  outer = util::EpochDomain::Guard();  // drop the outer pin
  EXPECT_EQ(domain.collect(), 1u);
  EXPECT_TRUE(reclaimed);
}

TEST(Epoch, MoveTransfersThePin) {
  util::EpochDomain domain;
  bool reclaimed = false;
  util::EpochDomain::Guard a = domain.pin();
  domain.retire([&reclaimed] { reclaimed = true; });
  util::EpochDomain::Guard b = std::move(a);
  EXPECT_TRUE(b.pinned());
  a = util::EpochDomain::Guard();  // moved-from reset: must not unpin b
  EXPECT_EQ(domain.collect(), 0u);
  b = util::EpochDomain::Guard();
  EXPECT_EQ(domain.collect(), 1u);
  EXPECT_TRUE(reclaimed);
}

TEST(Epoch, SynchronizeWaitsForPreSwapReaders) {
  util::EpochDomain domain;
  std::atomic<bool> reader_pinned{false};
  std::atomic<bool> release_reader{false};
  std::atomic<bool> synchronized{false};

  std::thread reader([&] {
    const util::EpochDomain::Guard guard = domain.pin();
    reader_pinned.store(true);
    while (!release_reader.load()) std::this_thread::yield();
  });
  while (!reader_pinned.load()) std::this_thread::yield();

  std::thread writer([&] {
    domain.synchronize();
    synchronized.store(true);
  });
  // synchronize() must not return while the pre-existing reader is pinned.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(synchronized.load());

  release_reader.store(true);
  reader.join();
  writer.join();
  EXPECT_TRUE(synchronized.load());
}

TEST(Epoch, ContinuousReadersDoNotStarveWritersOrLeakLimbo) {
  // Readers pin in a tight loop the whole time; the writer must still push
  // grace periods through (post-bump pins don't hold pre-bump entries) and
  // every retired entry must eventually be reclaimed. Under TSan this is
  // also the ordering check on the slot stamps and the limbo list.
  util::EpochDomain domain;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> pins{0};
  std::vector<std::thread> readers;
  for (int w = 0; w < 3; ++w) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const util::EpochDomain::Guard guard = domain.pin();
        pins.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Only start writing once readers are actually overlapping the writer.
  while (pins.load(std::memory_order_relaxed) == 0) std::this_thread::yield();

  std::atomic<int> reclaimed{0};
  for (int i = 0; i < 200; ++i) {
    domain.retire([&reclaimed] { ++reclaimed; });
    if (i % 4 == 0) domain.synchronize();
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  domain.collect();
  EXPECT_EQ(reclaimed.load(), 200);
  EXPECT_EQ(domain.limbo_size(), 0u);
  EXPECT_GT(pins.load(), 0u);
  EXPECT_GT(domain.grace_epoch(), 200u);
}

TEST(Epoch, GlobalDomainServesManyThreads) {
  // The global domain's per-thread slots: spawn threads that pin/unpin the
  // singleton and exit (exercising the thread-local slot release), twice,
  // so reused slots are covered too.
  for (int round = 0; round < 2; ++round) {
    std::vector<std::thread> threads;
    for (int w = 0; w < 8; ++w) {
      threads.emplace_back([] {
        for (int i = 0; i < 100; ++i) {
          const util::EpochDomain::Guard guard =
              util::EpochDomain::global().pin();
          EXPECT_TRUE(guard.pinned());
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  util::EpochDomain::global().synchronize();  // no pinned readers remain
}

TEST(Cli, ParsesFlagsAndPositionals) {
  const char* argv[] = {"prog",   "--alpha=1", "pos1", "--beta", "2",
                        "--gamma", "--delta=x y"};
  CliArgs args(7, argv);
  EXPECT_EQ(args.get_int_or("alpha", 0), 1);
  EXPECT_EQ(args.get_int_or("beta", 0), 2);
  // A bare flag followed by another flag is boolean.
  EXPECT_TRUE(args.get_bool_or("gamma", false));
  EXPECT_EQ(args.get_or("delta", ""), "x y");
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Cli, RejectsBadNumbers) {
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.get_int_or("n", 0), CheckFailure);
}

TEST(Cli, TracksUnusedFlags) {
  const char* argv[] = {"prog", "--used=1", "--unused=2"};
  CliArgs args(3, argv);
  (void)args.get("used");
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "unused");
}

TEST(Ascii, TableRendersAllCells) {
  AsciiTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("value"), std::string::npos);
}

TEST(Ascii, PlotRendersSeriesGlyphs) {
  AsciiPlot plot("title", "x", "y", {0, 1, 2, 3});
  plot.add_series({"s1", {0.0, 0.5, 1.0, 0.5}});
  std::ostringstream os;
  plot.print(os, 40, 10);
  const std::string s = os.str();
  EXPECT_NE(s.find('*'), std::string::npos);
  EXPECT_NE(s.find("title"), std::string::npos);
}

TEST(Ascii, PlotRejectsMismatchedSeries) {
  AsciiPlot plot("t", "x", "y", {0, 1, 2});
  EXPECT_THROW(plot.add_series({"bad", {1.0}}), CheckFailure);
}

// ----------------------------------------------------------------- crc32c

TEST(Crc32c, KnownVectors) {
  // RFC 3720 §B.4 test vectors.
  EXPECT_EQ(crc32c(""), 0x00000000u);
  EXPECT_EQ(crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(crc32c(std::string(32, '\0')), 0x8a9136aau);
  EXPECT_EQ(crc32c(std::string(32, '\xff')), 0x62a8ab43u);
}

TEST(Crc32c, SeedComposesAcrossSplits) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(data);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    EXPECT_EQ(crc32c(data.substr(cut), crc32c(data.substr(0, cut))), whole);
  }
}

TEST(Crc32c, DetectsEverySingleBitFlip) {
  const std::string data = "wal frame payload under test";
  const std::uint32_t good = crc32c(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = data;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      EXPECT_NE(crc32c(bad), good) << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(Crc32c, HardwareTierMatchesTheTableTier) {
  // crc32c_long (SSE4.2 where available) must be bit-identical to the byte
  // table across sizes, alignments, and seeds — every stored checksum in
  // the WAL and the columnar store depends on the tiers agreeing.
  Prng prng(7);
  for (const std::size_t size : std::vector<std::size_t>{
           0, 1, 7, 8, 9, 63, 64, 65, 1000, 4096, 70000}) {
    std::string data(size, '\0');
    for (char& c : data) c = static_cast<char>(prng.index(256));
    for (const std::uint32_t seed : {0u, 0xdeadbeefu}) {
      const std::uint32_t table = ~detail::crc32c_table_raw(data, ~seed);
      EXPECT_EQ(crc32c_long(data, seed), table) << "size " << size;
      EXPECT_EQ(crc32c(data, seed), table) << "size " << size;
      // Misaligned start: the hardware tier's alignment preamble.
      if (size > 3) {
        const std::string_view tail = std::string_view(data).substr(3);
        EXPECT_EQ(crc32c_long(tail, seed),
                  ~detail::crc32c_table_raw(tail, ~seed));
      }
    }
  }
}

// --------------------------------------------------- varint (hardened decode)

// Exhaustive boundary sweep: every 7-bit length boundary round-trips and
// decodes to the exact encoded length; the value one past each boundary
// takes one more byte.
TEST(Varint, EveryLengthBoundaryRoundTrips) {
  for (int bytes = 1; bytes <= 10; ++bytes) {
    // Smallest and largest value of each encoded length.
    const std::uint64_t lo =
        bytes == 1 ? 0 : (std::uint64_t{1} << (7 * (bytes - 1)));
    const std::uint64_t hi = bytes == 10
                                 ? ~std::uint64_t{0}
                                 : (std::uint64_t{1} << (7 * bytes)) - 1;
    for (const std::uint64_t v : {lo, lo + 1, hi - 1, hi}) {
      std::string buf;
      put_varint(buf, v);
      ASSERT_EQ(buf.size(), static_cast<std::size_t>(bytes)) << v;
      const VarintDecode d = try_get_varint(buf, 0);
      ASSERT_TRUE(d.ok()) << v << ": " << to_string(d.error);
      EXPECT_EQ(d.value, v);
      EXPECT_EQ(d.length, bytes);
    }
  }
}

// Every truncation point of every encoded length is reported kTruncated —
// never a read past the buffer, never a silently short value.
TEST(Varint, EveryTruncationPointIsStructurallyRejected) {
  for (int bytes = 1; bytes <= 10; ++bytes) {
    const std::uint64_t v =
        bytes == 10 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << (7 * bytes)) - 1;
    std::string buf;
    put_varint(buf, v);
    ASSERT_EQ(buf.size(), static_cast<std::size_t>(bytes));
    for (std::size_t len = 0; len < buf.size(); ++len) {
      const VarintDecode d = try_get_varint(buf.substr(0, len), 0);
      EXPECT_EQ(d.error, VarintError::kTruncated)
          << bytes << "-byte encoding cut to " << len;
    }
    std::size_t pos = 0;
    std::string cut = buf.substr(0, buf.size() - 1);
    EXPECT_THROW((void)get_varint(cut, pos), CheckFailure);
  }
}

// Overlong (zero-padded) encodings of every value length are rejected as
// non-canonical rather than decoded to an aliased value.
TEST(Varint, OverlongPaddedEncodingsAreRejected) {
  for (const std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 16384ull}) {
    std::string canonical;
    put_varint(canonical, v);
    for (std::size_t pad = 1; canonical.size() + pad <= 11; ++pad) {
      std::string buf = canonical;
      buf.back() = static_cast<char>(buf.back() | 0x80);
      for (std::size_t i = 1; i < pad; ++i) buf.push_back('\x80');
      buf.push_back('\x00');
      const VarintDecode d = try_get_varint(buf, 0);
      EXPECT_FALSE(d.ok()) << "value " << v << " padded by " << pad;
      EXPECT_TRUE(d.error == VarintError::kOverlong ||
                  d.error == VarintError::kTooLong)
          << to_string(d.error);
    }
  }
}

TEST(Varint, TenthByteOverflowBitsAreRejected) {
  // 2^63 encodes as nine 0x80 continuations plus a final 0x01; any larger
  // final byte would claim bits past 2^64.
  std::string max_ok(9, '\x80');
  max_ok += '\x01';
  const VarintDecode good = try_get_varint(max_ok, 0);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value, std::uint64_t{1} << 63);

  for (int final_byte : {0x02, 0x03, 0x40, 0x7f}) {
    std::string bad(9, '\x80');
    bad += static_cast<char>(final_byte);
    EXPECT_EQ(try_get_varint(bad, 0).error, VarintError::kOverlong)
        << "final byte " << final_byte;
  }
}

TEST(Varint, ElevenByteEncodingsAreTooLong) {
  std::string bad(10, '\x80');
  bad += '\x01';
  EXPECT_EQ(try_get_varint(bad, 0).error, VarintError::kTooLong);
  // All-continuation garbage of any longer length: same structured error.
  std::string garbage(64, '\xff');
  EXPECT_EQ(try_get_varint(garbage, 0).error, VarintError::kTooLong);
}

TEST(Varint, ThrowingReaderNamesErrorAndOffset) {
  std::string buf = "ab";  // valid 1-byte varints
  buf += '\xff';           // truncated encoding at offset 2
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(buf, pos), static_cast<std::uint64_t>('a'));
  EXPECT_EQ(get_varint(buf, pos), static_cast<std::uint64_t>('b'));
  try {
    (void)get_varint(buf, pos);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find("offset 2"), std::string::npos) << what;
  }
  EXPECT_EQ(pos, 2u) << "failed decode must not advance the cursor";
}

TEST(Varint, DecodeNeverReadsPastAdvertisedSize) {
  // A buffer whose tail would complete the encoding if over-read: the
  // string_view length must be authoritative.
  const std::string backing = std::string("\xff\xff", 2) + '\x01';
  const VarintDecode d =
      try_get_varint(std::string_view(backing.data(), 2), 0);
  EXPECT_EQ(d.error, VarintError::kTruncated);
}

}  // namespace
}  // namespace ct
