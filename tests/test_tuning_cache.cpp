// Tuning cache: hit/miss behaviour, consistency with a fresh search,
// serialization round trip, strict corrupt-input rejection, hit-time
// corruption recovery, thread safety.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/fault_injection.h"
#include "gpukern/tuning_cache.h"
#include "nets/nets.h"

namespace lbc::gpukern {
namespace {

using gpusim::DeviceSpec;

std::string with_header(const std::string& body) {
  return std::string(kTuningCacheHeader) + "\n" + body;
}

TEST(TuningCache, MissThenHit) {
  const DeviceSpec dev = DeviceSpec::rtx2080ti();
  const ConvShape s = nets::resnet50_layers()[0];
  TuningCache cache;
  EXPECT_FALSE(
      cache.lookup({s.gemm_m(), s.gemm_n(), s.gemm_k(), 8, true}).has_value());
  const Tiling t1 = cache.get_or_search(dev, s, 8, true);
  EXPECT_EQ(cache.misses(), 1);
  const Tiling t2 = cache.get_or_search(dev, s, 8, true);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(TuningCache, MatchesFreshSearch) {
  const DeviceSpec dev = DeviceSpec::rtx2080ti();
  const ConvShape s = nets::resnet50_layers()[13];
  TuningCache cache;
  const Tiling cached = cache.get_or_search(dev, s, 4, true);
  const AutotuneResult fresh = autotune_tiling(dev, s, 4, true);
  EXPECT_EQ(cached, fresh.best);
}

TEST(TuningCache, KeysDistinguishBitsAndEngine) {
  const DeviceSpec dev = DeviceSpec::rtx2080ti();
  const ConvShape s = nets::resnet50_layers()[1];
  TuningCache cache;
  cache.get_or_search(dev, s, 8, true);
  cache.get_or_search(dev, s, 4, true);
  cache.get_or_search(dev, s, 8, false);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.misses(), 3);
}

TEST(TuningCache, SerializeRoundTrip) {
  const DeviceSpec dev = DeviceSpec::rtx2080ti();
  TuningCache a;
  for (int i = 0; i < 4; ++i)
    a.get_or_search(dev, nets::resnet50_layers()[static_cast<size_t>(i)], 8,
                    true);
  const std::string text = a.serialize();
  EXPECT_EQ(text.rfind(kTuningCacheHeader, 0), 0u)
      << "serialized form must start with the format-version header";

  TuningCache b;
  const StatusOr<int> n = b.deserialize(text);
  ASSERT_TRUE(n.ok()) << n.status().to_string();
  EXPECT_EQ(n.value(), 4);
  EXPECT_EQ(b.size(), 4u);
  // Every restored entry serves as a hit with identical tiling.
  for (int i = 0; i < 4; ++i) {
    const ConvShape& s = nets::resnet50_layers()[static_cast<size_t>(i)];
    EXPECT_EQ(b.get_or_search(dev, s, 8, true),
              a.get_or_search(dev, s, 8, true));
  }
  EXPECT_EQ(b.misses(), 0);
}

TEST(TuningCache, DeserializeRejectsMissingOrWrongHeader) {
  TuningCache c;
  const StatusOr<int> empty = c.deserialize("");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kDataLoss);

  const StatusOr<int> wrong =
      c.deserialize("lbc-tuning-cache v99\n64 196 1024 8 1 32 16 64 32 2 1\n");
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(c.size(), 0u);
}

TEST(TuningCache, DeserializeRejectsTruncatedAndGarbageLines) {
  const char* bad_bodies[] = {
      "garbage line\n",
      "64 196 1024 8 1 32 16 64 32 2\n",         // truncated (10 fields)
      "64 196 1024 8 1 32 16 64 32 2 1 99\n",    // trailing field
      "1 2 -3 8 1 16 16 32 16 1 1\n",            // negative K
      "64 196 1024 9 1 32 16 64 32 2 1\n",       // bits out of range
      "64 196 1024 8 7 32 16 64 32 2 1\n",       // use_tc not 0/1
      "64 196 1024 4 1 0 16 64 32 2 1\n",        // zero mtile
      "64 196 1024 4 1 32 16 64 48 2 1\n",       // kstep does not divide ktile
      "64 196 1024 4 1 2048 16 64 32 2 1\n",     // mtile > 1024
      "64 196 1024 4 1 32 16 64 32 3 1\n",       // warp grid does not divide
  };
  for (const char* body : bad_bodies) {
    TuningCache c;
    const StatusOr<int> r = c.deserialize(with_header(body));
    ASSERT_FALSE(r.ok()) << "accepted corrupt body: " << body;
    // Structural corruption reports kDataLoss; out-of-range tiling values
    // propagate validate_tiling's kOutOfRange with line context.
    EXPECT_TRUE(r.status().code() == StatusCode::kDataLoss ||
                r.status().code() == StatusCode::kOutOfRange)
        << body << " -> " << r.status().to_string();
    EXPECT_EQ(c.size(), 0u) << body;
  }
}

TEST(TuningCache, DeserializeIsTransactional) {
  // One corrupt line anywhere must leave the cache completely unmodified,
  // even when valid lines precede it.
  TuningCache c;
  const StatusOr<int> r = c.deserialize(
      with_header("64 196 1024 8 1 32 16 64 32 2 1\n"
                  "garbage line\n"
                  "128 49 512 4 1 64 16 64 32 2 2\n"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(c.size(), 0u);
  EXPECT_FALSE(c.lookup({64, 196, 1024, 8, true}).has_value());
}

TEST(TuningCache, DeserializeSkipsBlankLinesOnly) {
  TuningCache c;
  const StatusOr<int> r = c.deserialize(
      with_header("64 196 1024 8 1 32 16 64 32 2 1\n"
                  "\n"
                  "128 49 512 4 1 64 16 64 32 2 2\n"));
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), 2);
  EXPECT_TRUE(c.lookup({64, 196, 1024, 8, true}).has_value());
  EXPECT_TRUE(c.lookup({128, 49, 512, 4, true}).has_value());
}

TEST(TuningCache, CorruptHitIsEvictedAndResearched) {
  const DeviceSpec dev = DeviceSpec::rtx2080ti();
  const ConvShape s = nets::resnet50_layers()[0];
  TuningCache cache;
  const Tiling clean = cache.get_or_search(dev, s, 8, true);

  // Poison exactly the next cache hit; the cache must evict the bogus
  // entry and recover via a fresh search rather than return it.
  ScopedFault fault(FaultSite::kTuningCacheCorrupt, /*fire_count=*/1);
  const Tiling healed = cache.get_or_search(dev, s, 8, true);
  EXPECT_EQ(healed, clean);
  EXPECT_EQ(cache.corrupt_evictions(), 1);
  EXPECT_TRUE(validate_tiling(healed).ok());

  // And the re-searched entry serves clean hits afterwards.
  EXPECT_EQ(cache.get_or_search(dev, s, 8, true), clean);
  EXPECT_EQ(cache.corrupt_evictions(), 1);
}

TEST(TuningCache, ConcurrentAccessIsSafeAndConsistent) {
  const DeviceSpec dev = DeviceSpec::rtx2080ti();
  TuningCache cache;
  const auto layers = nets::resnet50_layers();
  std::vector<std::thread> pool;
  std::vector<Tiling> results(8);
  for (int t = 0; t < 8; ++t)
    pool.emplace_back([&, t] {
      // All threads tune the same handful of shapes concurrently.
      for (int i = 0; i < 4; ++i)
        results[static_cast<size_t>(t)] = cache.get_or_search(
            dev, layers[static_cast<size_t>(i % 4)], 8, true);
    });
  for (auto& th : pool) th.join();
  EXPECT_EQ(cache.size(), 4u);
  // Every thread converged to the same (deterministic) tiling for layer 3.
  for (const Tiling& t : results) EXPECT_EQ(t, results[0]);
}

TEST(TuningCache, StatGettersAreSafeAlongsideWriters) {
  // hits()/misses()/corrupt_evictions() take the cache lock; readers polling
  // them while other threads insert must see consistent, monotone values
  // (and run clean under tsan — this is the regression test for the
  // formerly unlocked getters).
  const DeviceSpec dev = DeviceSpec::rtx2080ti();
  TuningCache cache;
  const auto layers = nets::resnet50_layers();
  std::atomic<bool> stop{false};
  i64 last_hits = 0, last_misses = 0;
  std::thread reader([&] {
    while (!stop.load()) {
      const i64 h = cache.hits();
      const i64 m = cache.misses();
      EXPECT_GE(h, last_hits);
      EXPECT_GE(m, last_misses);
      EXPECT_EQ(cache.corrupt_evictions(), 0);
      last_hits = h;
      last_misses = m;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t)
    writers.emplace_back([&] {
      for (int i = 0; i < 16; ++i)
        cache.get_or_search(dev, layers[static_cast<size_t>(i % 8)], 8, true);
    });
  for (auto& th : writers) th.join();
  stop.store(true);
  reader.join();
  // Every call counts exactly one hit or miss; concurrent first-misses on
  // the same key may each count a miss (the search runs unlocked), so the
  // miss count is only bounded below by the distinct-shape count.
  EXPECT_EQ(cache.hits() + cache.misses(), 4 * 16);
  EXPECT_GE(cache.misses(), static_cast<i64>(cache.size()));
  EXPECT_LE(cache.size(), 8u);
}

// ---------------------------------------------------------------------------
// Format v2: backend-keyed entries (GPU tilings + ARM blockings)
// ---------------------------------------------------------------------------

TEST(TuningCacheV2, ArmEntriesRoundTripAlongsideGpu) {
  const DeviceSpec dev = DeviceSpec::rtx2080ti();
  TuningCache a;
  a.get_or_search(dev, nets::resnet50_layers()[0], 8, true);
  const ArmTuningKey ak{64, 3136, 576, 4, 0};
  const ArmBlocking ab{128, 64, 256};
  a.put_arm(ak, ab);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.arm_size(), 1u);

  const std::string text = a.serialize();
  EXPECT_EQ(text.rfind(kTuningCacheHeader, 0), 0u);
  EXPECT_NE(text.find("\narm 64 3136 576 4 0 128 64 256\n"),
            std::string::npos);

  TuningCache b;
  const StatusOr<int> n = b.deserialize(text);
  ASSERT_TRUE(n.ok()) << n.status().to_string();
  EXPECT_EQ(n.value(), 2);
  ASSERT_TRUE(b.lookup_arm(ak).has_value());
  EXPECT_EQ(*b.lookup_arm(ak), ab);
}

TEST(TuningCacheV2, ReadsV1HeadedFiles) {
  // A v1 cache file (GPU entries, bare lines) still loads under the v2
  // reader — deployments ship cache files across library versions.
  TuningCache c;
  const StatusOr<int> r = c.deserialize(
      std::string(kTuningCacheHeaderV1) +
      "\n64 196 1024 8 1 32 16 64 32 2 1\n");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), 1);
  EXPECT_TRUE(c.lookup({64, 196, 1024, 8, true}).has_value());
}

TEST(TuningCacheV2, RejectsArmEntriesUnderV1Header) {
  // v1 never carried ARM entries; an "arm" line under a v1 header is a
  // manually doctored or corrupted file.
  TuningCache c;
  const StatusOr<int> r = c.deserialize(
      std::string(kTuningCacheHeaderV1) + "\narm 64 3136 576 4 0 128 64 256\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(c.size(), 0u);
}

TEST(TuningCacheV2, RejectsCorruptArmLines) {
  const char* bad_bodies[] = {
      "arm 64 3136 576 4 0 128 64\n",          // truncated
      "arm 64 3136 576 4 0 128 64 256 9\n",    // trailing field
      "arm 64 3136 576 4 9 128 64 256\n",      // scheme out of range
      "arm 64 3136 576 4 0 100 64 256\n",      // Mc not multiple of 16
      "arm 64 3136 576 4 0 128 64 30\n",       // Nc not multiple of 4
      "arm 64 3136 576 4 0 -16 64 256\n",      // negative Mc
      "arm 64 3136 576 4 0 8192 64 256\n",     // Mc > 4096
      "arm 0 3136 576 4 0 128 64 256\n",       // non-positive M
  };
  for (const char* body : bad_bodies) {
    TuningCache c;
    const StatusOr<int> r = c.deserialize(with_header(body));
    ASSERT_FALSE(r.ok()) << "accepted corrupt body: " << body;
    EXPECT_TRUE(r.status().code() == StatusCode::kDataLoss ||
                r.status().code() == StatusCode::kOutOfRange)
        << body << " -> " << r.status().to_string();
    EXPECT_EQ(c.size(), 0u) << body;
  }
}

TEST(TuningCacheV2, ArmCorruptHitIsEvictedAndResearched) {
  TuningCache cache;
  const ArmTuningKey key{64, 3136, 576, 8, 0};
  const ArmBlocking want{128, 128, 64};
  int searches = 0;
  const auto search = [&] {
    ++searches;
    return want;
  };
  EXPECT_EQ(cache.get_or_search_arm(key, search), want);
  EXPECT_EQ(searches, 1);
  EXPECT_EQ(cache.misses(), 1);

  // Poison exactly the next hit: the cache must evict the bogus entry and
  // recover through the search callback, never hand out mc = -7.
  ScopedFault fault(FaultSite::kTuningCacheCorrupt, /*fire_count=*/1);
  EXPECT_EQ(cache.get_or_search_arm(key, search), want);
  EXPECT_EQ(searches, 2);
  EXPECT_EQ(cache.corrupt_evictions(), 1);

  // Healed entry serves clean hits afterwards.
  EXPECT_EQ(cache.get_or_search_arm(key, search), want);
  EXPECT_EQ(searches, 2);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(TuningCacheV3, X86EntriesRoundTripAlongsideGpuAndArm) {
  const DeviceSpec dev = DeviceSpec::rtx2080ti();
  TuningCache a;
  a.get_or_search(dev, nets::resnet50_layers()[0], 8, true);
  a.put_arm({64, 3136, 576, 4, 0}, {128, 64, 256});
  const X86TuningKey xk{64, 3136, 576, 4, 0};
  const X86Blocking xb{8, 256};
  a.put_x86(xk, xb);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.x86_size(), 1u);

  const std::string text = a.serialize();
  EXPECT_EQ(text.rfind(kTuningCacheHeader, 0), 0u);
  EXPECT_NE(text.find("\nx86 64 3136 576 4 0 8 256\n"), std::string::npos);

  TuningCache b;
  const StatusOr<int> n = b.deserialize(text);
  ASSERT_TRUE(n.ok()) << n.status().to_string();
  EXPECT_EQ(n.value(), 3);
  ASSERT_TRUE(b.lookup_x86(xk).has_value());
  EXPECT_EQ(*b.lookup_x86(xk), xb);
}

TEST(TuningCacheV3, ReadsV2HeadedFiles) {
  // A v2 file (GPU + ARM entries) still loads under the v3 reader.
  TuningCache c;
  const StatusOr<int> r = c.deserialize(
      std::string(kTuningCacheHeaderV2) +
      "\ngpu 64 196 1024 8 1 32 16 64 32 2 1\narm 64 3136 576 4 0 128 64 "
      "256\n");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), 2);
  EXPECT_TRUE(c.lookup({64, 196, 1024, 8, true}).has_value());
  EXPECT_TRUE(c.lookup_arm({64, 3136, 576, 4, 0}).has_value());
}

TEST(TuningCacheV3, RejectsX86EntriesUnderOldHeaders) {
  // Neither v1 nor v2 ever carried x86 entries; such a line under an old
  // header is a doctored or corrupted file.
  for (const char* header : {kTuningCacheHeaderV1, kTuningCacheHeaderV2}) {
    TuningCache c;
    const StatusOr<int> r = c.deserialize(
        std::string(header) + "\nx86 64 3136 576 4 0 8 256\n");
    ASSERT_FALSE(r.ok()) << header;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << header;
    EXPECT_EQ(c.size(), 0u) << header;
  }
}

TEST(TuningCacheV3, RejectsCorruptX86Lines) {
  const char* bad_bodies[] = {
      "x86 64 3136 576 4 0 8\n",         // truncated
      "x86 64 3136 576 4 0 8 256 9\n",   // trailing field
      "x86 64 3136 576 4 5 8 256\n",     // scheme out of range
      "x86 64 3136 576 4 0 -8 256\n",    // negative row block
      "x86 64 3136 576 4 0 8 0\n",       // zero col block
      "x86 64 3136 576 4 0 8192 256\n",  // row block > 4096
      "x86 64 3136 576 4 0 8 16384\n",   // col block > 8192
      "x86 0 3136 576 4 0 8 256\n",      // non-positive M
  };
  for (const char* body : bad_bodies) {
    TuningCache c;
    const StatusOr<int> r = c.deserialize(with_header(body));
    ASSERT_FALSE(r.ok()) << "accepted corrupt body: " << body;
    EXPECT_TRUE(r.status().code() == StatusCode::kDataLoss ||
                r.status().code() == StatusCode::kOutOfRange)
        << body << " -> " << r.status().to_string();
    EXPECT_EQ(c.size(), 0u) << body;
  }
}

TEST(TuningCacheV3, X86CorruptHitIsEvictedAndResearched) {
  TuningCache cache;
  const X86TuningKey key{512, 49, 4608, 8, 1};
  const X86Blocking want{32, 64};
  int searches = 0;
  const auto search = [&] {
    ++searches;
    return want;
  };
  EXPECT_EQ(cache.get_or_search_x86(key, search), want);
  EXPECT_EQ(searches, 1);
  EXPECT_EQ(cache.misses(), 1);

  // Poison exactly the next hit: the cache must evict the bogus entry and
  // recover through the search callback, never hand out rb = -7.
  ScopedFault fault(FaultSite::kTuningCacheCorrupt, /*fire_count=*/1);
  EXPECT_EQ(cache.get_or_search_x86(key, search), want);
  EXPECT_EQ(searches, 2);
  EXPECT_EQ(cache.corrupt_evictions(), 1);

  // Healed entry serves clean hits afterwards.
  EXPECT_EQ(cache.get_or_search_x86(key, search), want);
  EXPECT_EQ(searches, 2);
  EXPECT_EQ(cache.hits(), 1);
}

TEST(TuningCacheV4, GraphEntriesRoundTripAndPartialSetIsAMiss) {
  TuningCache a;
  const u64 hash = 0x1234deadbeefull;
  const std::vector<ArmBlocking> plan = {{128, 64, 256}, {64, 128, 512}};
  a.put_graph(hash, plan);
  EXPECT_EQ(a.graph_size(), 2u);

  const std::string text = a.serialize();
  EXPECT_EQ(text.rfind(kTuningCacheHeader, 0), 0u);
  EXPECT_NE(text.find("graph 20018283527919 0 128 64 256\n"),
            std::string::npos);

  TuningCache b;
  const StatusOr<int> n = b.deserialize(text);
  ASSERT_TRUE(n.ok()) << n.status().to_string();
  EXPECT_EQ(n.value(), 2);
  const auto hit = b.lookup_graph(hash, 2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, plan);
  // All-or-nothing: asking for more layers than are stored is a miss, and
  // a different hash never sees these rows.
  EXPECT_FALSE(b.lookup_graph(hash, 3).has_value());
  EXPECT_FALSE(b.lookup_graph(hash + 1, 2).has_value());
}

TEST(TuningCacheV4, GetOrSearchGraphSearchesOnceThenHits) {
  TuningCache cache;
  const std::vector<ArmBlocking> want = {{64, 64, 128}, {128, 32, 256}};
  int searches = 0;
  const auto search = [&] {
    ++searches;
    return want;
  };
  EXPECT_EQ(cache.get_or_search_graph(9, 2, search), want);
  EXPECT_EQ(searches, 1);
  EXPECT_EQ(cache.get_or_search_graph(9, 2, search), want);
  EXPECT_EQ(searches, 1);
  EXPECT_EQ(cache.hits(), 1);
  // A wider net under the same hash is a partial set: re-search.
  const std::vector<ArmBlocking> want3 = {{64, 64, 128}, {128, 32, 256},
                                          {64, 128, 128}};
  int searches3 = 0;
  EXPECT_EQ(cache.get_or_search_graph(9, 3,
                                      [&] {
                                        ++searches3;
                                        return want3;
                                      }),
            want3);
  EXPECT_EQ(searches3, 1);
}

TEST(TuningCacheV4, ReadsV3HeadedFiles) {
  // A v3 file (GPU + ARM + x86 entries, no graph rows) still loads.
  TuningCache c;
  const StatusOr<int> r = c.deserialize(
      std::string(kTuningCacheHeaderV3) +
      "\ngpu 64 196 1024 8 1 32 16 64 32 2 1\narm 64 3136 576 4 0 128 64 "
      "256\nx86 64 3136 576 4 0 8 256\n");
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(r.value(), 3);
  EXPECT_TRUE(c.lookup_x86({64, 3136, 576, 4, 0}).has_value());
}

TEST(TuningCacheV4, RejectsGraphEntriesUnderOldHeaders) {
  // No pre-v4 format ever carried graph rows; such a line under an old
  // header is a doctored or corrupted file.
  for (const char* header :
       {kTuningCacheHeaderV1, kTuningCacheHeaderV2, kTuningCacheHeaderV3}) {
    TuningCache c;
    const StatusOr<int> r =
        c.deserialize(std::string(header) + "\ngraph 42 0 128 64 256\n");
    ASSERT_FALSE(r.ok()) << header;
    EXPECT_EQ(r.status().code(), StatusCode::kDataLoss) << header;
    EXPECT_EQ(c.size(), 0u) << header;
  }
}

TEST(TuningCacheV4, RejectsCorruptGraphLines) {
  const char* bad_bodies[] = {
      "graph 42 0 128 64\n",          // truncated
      "graph 42 0 128 64 256 9\n",    // trailing field
      "graph 42 -1 128 64 256\n",     // negative layer index
      "graph 42 4096 128 64 256\n",   // layer index past the bound
      "graph 42 0 -16 64 256\n",      // negative Mc
      "graph 42 0 100 64 256\n",      // Mc not a multiple of the 16 panel
      "graph 42 0 128 64 255\n",      // Nc not a multiple of the 4 panel
      "graph 42 0 128 8192 256\n",    // Kc > 4096
  };
  for (const char* body : bad_bodies) {
    TuningCache c;
    const StatusOr<int> r = c.deserialize(with_header(body));
    ASSERT_FALSE(r.ok()) << "accepted corrupt body: " << body;
    EXPECT_TRUE(r.status().code() == StatusCode::kDataLoss ||
                r.status().code() == StatusCode::kOutOfRange)
        << body << " -> " << r.status().to_string();
    EXPECT_EQ(c.size(), 0u) << body;
  }
}

TEST(TuningCacheV4, CorruptGraphRowEvictsTheWholePlan) {
  TuningCache cache;
  const std::vector<ArmBlocking> want = {{128, 64, 256}, {64, 64, 128}};
  int searches = 0;
  const auto search = [&] {
    ++searches;
    return want;
  };
  EXPECT_EQ(cache.get_or_search_graph(7, 2, search), want);
  EXPECT_EQ(searches, 1);

  // Poison the next hit: one bad row must evict and re-search the WHOLE
  // plan (a joint plan is only usable complete).
  ScopedFault fault(FaultSite::kTuningCacheCorrupt, /*fire_count=*/1);
  EXPECT_EQ(cache.get_or_search_graph(7, 2, search), want);
  EXPECT_EQ(searches, 2);
  EXPECT_GE(cache.corrupt_evictions(), 1);

  // Healed rows serve clean hits afterwards.
  EXPECT_EQ(cache.get_or_search_graph(7, 2, search), want);
  EXPECT_EQ(searches, 2);
}

}  // namespace
}  // namespace lbc::gpukern
