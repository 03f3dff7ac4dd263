// The archive query engine (DESIGN.md §15): bloom-pruned parallel segment
// scans merged back in manifest order (byte-identical to an unpruned oracle
// written here, at every thread count, with and without compression), the
// hot-segment LRU cache (hits require zero disk reads; eviction respects
// the byte budget), cursor pinning against GC, and the churn soak —
// concurrent clients racing rotation, sealing and retention with a
// quiesced byte-identity check at the end.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive_writer.hpp"
#include "archive/query_engine.hpp"
#include "archive/retention.hpp"
#include "archive/segment_cache.hpp"
#include "parallel/thread_pool.hpp"

namespace gill::archive {
namespace {

namespace fs = std::filesystem;

net::Prefix pfx(const std::string& text) {
  return net::Prefix::parse(text).value();
}

bgp::Update make_update(VpId vp, Timestamp time, const std::string& prefix) {
  bgp::Update update;
  update.vp = vp;
  update.time = time;
  update.prefix = pfx(prefix);
  update.path = bgp::AsPath{65010, 65020, 64512};
  update.communities = {bgp::Community(65010, 1)};
  return update;
}

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("gill_qe_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// Builds a store of `windows` sealed 900-second windows, each holding
/// `per_window` updates over a window-specific prefix block (10.<w>.x.0/24)
/// plus a shared block (172.16.x.0/24), VPs cycling 0..3.
std::vector<bgp::Update> build_store(const std::string& dir, bool compress,
                                     int windows = 6, int per_window = 20) {
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.compress = compress;
  SegmentWriter writer(config);
  EXPECT_TRUE(writer.open());
  std::vector<bgp::Update> sent;
  for (int w = 0; w < windows; ++w) {
    for (int i = 0; i < per_window; ++i) {
      const auto time =
          static_cast<Timestamp>(900 + w * 900 + i * (880 / per_window));
      const std::string prefix =
          i % 4 == 3 ? "172.16." + std::to_string(i) + ".0/24"
                     : "10." + std::to_string(w) + "." + std::to_string(i) +
                           ".0/24";
      auto update = make_update(static_cast<VpId>(i % 4), time, prefix);
      writer.store(update);
      sent.push_back(std::move(update));
    }
  }
  writer.close();
  EXPECT_FALSE(writer.failed());
  return sent;
}

/// The oracle's record filter, written independently of the engine's.
bool oracle_keeps(const bgp::Update& update, const QueryOptions& options) {
  const bool in_window =
      options.start <= update.time && update.time < options.end;
  const bool vp_ok = !options.vp.has_value() || update.vp == *options.vp;
  const bool prefix_ok =
      !options.prefix.has_value() || options.prefix->covers(update.prefix);
  return in_window && vp_ok && prefix_ok;
}

/// The reference every engine configuration must match byte for byte: each
/// manifest row's payload, loaded by SegmentCache::load_segment, walked
/// record by record with mrt::Reader, the records oracle_keeps() selects
/// concatenated verbatim. No pruning (so a bloom false negative shows up
/// as a missing record), no pool, no cache.
std::string oracle_bytes(const std::string& dir, const QueryOptions& options) {
  std::string out;
  for (const SegmentMeta& meta : load_manifest(dir)) {
    const SegmentCache::Payload payload =
        SegmentCache::load_segment(dir, meta);
    EXPECT_NE(payload, nullptr) << meta.file;
    if (payload == nullptr) continue;
    const char* base = reinterpret_cast<const char*>(payload->data());
    mrt::Reader reader{std::span<const std::uint8_t>(*payload)};
    std::size_t begin = 0;
    while (const auto record = reader.next()) {
      if (oracle_keeps(record->update, options)) {
        out.append(base + begin, reader.offset() - begin);
      }
      begin = reader.offset();
    }
    EXPECT_TRUE(reader.done() && reader.ok()) << meta.file;
  }
  return out;
}

std::string engine_bytes(QueryEngine& engine, const QueryOptions& options) {
  auto cursor = engine.query(options);
  std::string out;
  while (cursor->next_chunk(out)) {
  }
  return out;
}

std::vector<QueryOptions> representative_queries() {
  std::vector<QueryOptions> queries;
  queries.push_back({});  // everything
  QueryOptions window;
  window.start = 1800;
  window.end = 3600;
  queries.push_back(window);
  QueryOptions vp;
  vp.vp = 2;
  queries.push_back(vp);
  QueryOptions prefix;
  prefix.prefix = pfx("10.2.0.0/16");
  queries.push_back(prefix);
  QueryOptions combined;
  combined.start = 900;
  combined.end = 4500;
  combined.vp = 1;
  combined.prefix = pfx("172.16.0.0/12");
  queries.push_back(combined);
  return queries;
}

// ---------------------------------------------------------------------------
// Byte identity: the engine's output == the oracle's, at 1/2/4 threads,
// compressed and raw, cache on and off, and inline.
// ---------------------------------------------------------------------------

TEST(QueryEngine, ParallelOutputMatchesSerialByteForByte) {
  for (const bool compress : {false, true}) {
    if (compress && !compression_available()) continue;
    const std::string dir =
        scratch_dir(compress ? "ident_zstd" : "ident_raw");
    build_store(dir, compress);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{4}}) {
      par::ThreadPool pool(threads);
      metrics::Registry registry;
      SegmentCache cache({.max_bytes = 32 * 1024 * 1024,
                          .registry = &registry});
      QueryEngineConfig config;
      config.directory = dir;
      config.pool = &pool;
      config.cache = &cache;
      config.registry = &registry;
      QueryEngine engine(config);
      ASSERT_TRUE(engine.open());
      for (const auto& options : representative_queries()) {
        const std::string expected = oracle_bytes(dir, options);
        EXPECT_EQ(engine_bytes(engine, options), expected)
            << "threads=" << threads << " compress=" << compress;
        // Hot path (cache populated) must not change the bytes either.
        EXPECT_EQ(engine_bytes(engine, options), expected);
      }
    }
    // The inline (pool-less, cache-less) engine is the degenerate case.
    metrics::Registry registry;
    QueryEngineConfig config;
    config.directory = dir;
    config.registry = &registry;
    QueryEngine engine(config);
    ASSERT_TRUE(engine.open());
    for (const auto& options : representative_queries()) {
      EXPECT_EQ(engine_bytes(engine, options), oracle_bytes(dir, options));
    }
  }
}

TEST(QueryEngine, BloomPrunesSegmentsOnPrefixQueries) {
  const std::string dir = scratch_dir("prune");
  build_store(dir, false);
  metrics::Registry registry;
  QueryEngineConfig config;
  config.directory = dir;
  config.registry = &registry;
  QueryEngine engine(config);
  ASSERT_TRUE(engine.open());
  // 10.2.x.0/24 lives only in window 2: every other segment's bloom prunes
  // the query without a single disk read of its payload.
  QueryOptions options;
  options.prefix = pfx("10.2.0.0/16");
  const auto cursor = engine.query(options);
  EXPECT_EQ(cursor->planned_segments(), 1u);
  EXPECT_GE(engine.segments_pruned(), 5u);
  std::string out;
  while (cursor->next_chunk(out)) {
  }
  EXPECT_EQ(out, oracle_bytes(dir, options));
}

// ---------------------------------------------------------------------------
// Hot-segment cache: the second query reads zero bytes from disk.
// ---------------------------------------------------------------------------

TEST(QueryEngine, CacheServesHotQueriesWithZeroDiskReads) {
  const bool compress = compression_available();
  const std::string dir = scratch_dir("hot");
  build_store(dir, compress);
  metrics::Registry registry;
  par::ThreadPool pool(2);
  SegmentCache cache({.max_bytes = 64 * 1024 * 1024, .registry = &registry});
  QueryEngineConfig config;
  config.directory = dir;
  config.pool = &pool;
  config.cache = &cache;
  config.registry = &registry;
  QueryEngine engine(config);
  ASSERT_TRUE(engine.open());

  const std::string cold = engine_bytes(engine, {});
  const std::uint64_t cold_reads = cache.disk_reads();
  EXPECT_GT(cold_reads, 0u);
  EXPECT_EQ(cache.hits(), 0u);

  // The proof the hot path touches no disk: delete every segment file.
  // The manifest snapshot and the cached payloads are all that's left.
  for (const auto& meta : *engine.snapshot()) {
    fs::remove(fs::path(dir) / meta.file);
  }
  const std::string hot = engine_bytes(engine, {});
  EXPECT_EQ(hot, cold);
  EXPECT_EQ(cache.disk_reads(), cold_reads);  // not one more load
  EXPECT_GT(cache.hits(), 0u);
  EXPECT_EQ(engine.segments_vanished(), 0u);
  EXPECT_EQ(registry.counter_total("gill_archive_cache_hits_total"),
            cache.hits());
}

TEST(QueryEngine, LruEvictionKeepsCacheUnderItsByteBudget) {
  const std::string dir = scratch_dir("lru");
  build_store(dir, false, /*windows=*/8);
  std::uint64_t total_raw = 0;
  for (const auto& meta : load_manifest(dir)) total_raw += meta.raw_bytes;
  ASSERT_GT(total_raw, 0u);

  metrics::Registry registry;
  // A budget that fits some but not all segments forces eviction.
  SegmentCache cache({.max_bytes = static_cast<std::size_t>(total_raw / 3),
                      .registry = &registry});
  QueryEngineConfig config;
  config.directory = dir;
  config.cache = &cache;
  config.registry = &registry;
  QueryEngine engine(config);
  ASSERT_TRUE(engine.open());
  const std::string first = engine_bytes(engine, {});
  EXPECT_EQ(engine_bytes(engine, {}), first);
  EXPECT_GT(cache.evictions(), 0u);
  EXPECT_LE(cache.bytes(), total_raw / 3);
  EXPECT_GT(cache.entries(), 0u);

  // A zero-budget cache degrades to plain loads: correct, never cached.
  SegmentCache off({.max_bytes = 0, .registry = &registry});
  config.cache = &off;
  QueryEngine uncached(config);
  ASSERT_TRUE(uncached.open());
  EXPECT_EQ(engine_bytes(uncached, {}), first);
  EXPECT_EQ(off.entries(), 0u);
  EXPECT_EQ(off.bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Pinning: GC never deletes a segment an in-flight cursor holds.
// ---------------------------------------------------------------------------

TEST(QueryEngine, GcNeverDeletesPinnedSegments) {
  const std::string dir = scratch_dir("pins");
  build_store(dir, false, /*windows=*/4);
  const std::string expected = oracle_bytes(dir, {});

  metrics::Registry registry;
  SegmentPins pins;
  QueryEngineConfig config;
  config.directory = dir;
  config.pins = &pins;
  config.registry = &registry;
  QueryEngine engine(config);
  ASSERT_TRUE(engine.open());

  RetentionPolicy policy;
  policy.max_age_secs = 1;  // condemns every window at now=10^6
  {
    auto cursor = engine.query({});  // pins all four windows
    EXPECT_EQ(pins.pinned_count(), 4u);
    const auto result =
        run_gc(dir, load_manifest(dir), policy, &pins, 1000000);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->skipped_pinned, 4u);
    EXPECT_TRUE(result->deleted_files.empty());
    // The cursor streams the full store even though GC just condemned it.
    std::string out;
    while (cursor->next_chunk(out)) {
    }
    EXPECT_EQ(out, expected);
    EXPECT_EQ(engine.segments_vanished(), 0u);
  }
  // Cursor gone, pins released: the next pass actually deletes.
  EXPECT_EQ(pins.pinned_count(), 0u);
  const auto result = run_gc(dir, load_manifest(dir), policy, &pins, 1000000);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->deleted_files.size(), 4u);
  EXPECT_TRUE(load_manifest(dir).empty());
}

// ---------------------------------------------------------------------------
// Churn soak: concurrent clients query while the writer rotates/seals and
// retention deletes — no vanished segments, every response parses, and the
// quiesced store is byte-identical between the engine and the oracle.
// ---------------------------------------------------------------------------

TEST(QueryEngine, QueriesUnderRotationSealingAndGcChurn) {
  const std::string dir = scratch_dir("churn");
  metrics::Registry registry;
  par::ThreadPool io_pool(1, &registry);
  SegmentWriterConfig writer_config;
  writer_config.directory = dir;
  writer_config.rotate_secs = 60;  // small windows: constant sealing
  writer_config.flush_bytes = 256;
  writer_config.compress = compression_available();
  writer_config.pool = &io_pool;
  writer_config.registry = &registry;
  SegmentWriter writer(writer_config);
  ASSERT_TRUE(writer.open());

  SegmentPins pins;
  SegmentCache cache({.max_bytes = 1 * 1024 * 1024, .registry = &registry});
  par::ThreadPool query_pool(4, &registry);
  QueryEngineConfig engine_config;
  engine_config.directory = dir;
  engine_config.pool = &query_pool;
  engine_config.cache = &cache;
  engine_config.pins = &pins;
  engine_config.registry = &registry;
  QueryEngine engine(engine_config);
  ASSERT_TRUE(engine.open());

  RetentionPolicy policy;
  policy.max_age_secs = 600;  // ten windows of history: GC fires often

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> parse_failures{0};

  // The writer thread owns every writer-side call (append/tick/retention),
  // mirroring the daemon's control loop; it also refreshes the engine when
  // the manifest generation moves, like the daemon tick does. The periodic
  // wait_idle lets the single io worker drain its seal queue so the
  // manifest actually advances (and GC has material) DURING the churn, not
  // only at close().
  std::thread churn([&] {
    Timestamp now = 900;
    std::uint64_t last_generation = 0;
    for (int i = 0; i < 6000 && !stop.load(); ++i) {
      writer.store(make_update(
          static_cast<VpId>(i % 3), now,
          "10." + std::to_string(i % 20) + "." + std::to_string(i % 200) +
              ".0/24"));
      now += 1;
      if (i % 50 == 0) writer.tick(now);
      if (i % 300 == 0) writer.wait_idle();
      if (i % 200 == 0) {
        writer.run_retention(policy, &pins, now,
                             [&](const std::string& file) {
                               cache.invalidate(dir, file);
                             });
      }
      const std::uint64_t generation = writer.manifest_generation();
      if (generation != last_generation) {
        last_generation = generation;
        engine.refresh();
      }
    }
    stop.store(true);
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      const auto queries = representative_queries();
      std::size_t i = static_cast<std::size_t>(c);
      while (!stop.load()) {
        const std::string body =
            engine_bytes(engine, queries[i++ % queries.size()]);
        responses.fetch_add(1);
        // Every response must be a clean framed-MRT stream, whatever
        // snapshot it was served from.
        mrt::Reader reader{std::span(
            reinterpret_cast<const std::uint8_t*>(body.data()), body.size())};
        while (reader.next()) {
        }
        if (!reader.ok()) parse_failures.fetch_add(1);
      }
    });
  }
  churn.join();
  for (auto& client : clients) client.join();

  EXPECT_GT(responses.load(), 0u);
  EXPECT_EQ(parse_failures.load(), 0u);
  // The pinning protocol held: no planned segment ever vanished mid-scan.
  EXPECT_EQ(engine.segments_vanished(), 0u);

  // One more retention pass now that the clients (and their pins) are
  // gone: on a heavily loaded or sanitizer build the clients can hold
  // pins continuously, legitimately starving every churn-time GC pass —
  // this final pass must actually delete the aged windows.
  writer.run_retention(policy, &pins, 900 + 6000, [&](const std::string& f) {
    cache.invalidate(dir, f);
  });

  // Quiesced: seal the tail, drain I/O (close() waits out every queued
  // seal and retention job), refresh — the parallel engine and the oracle
  // must now agree byte for byte.
  writer.close();
  EXPECT_FALSE(writer.failed());
  EXPECT_GT(writer.segments_sealed(), 10u);
  EXPECT_GT(registry.counter_total("gill_archive_gc_deleted_segments_total"),
            0u);
  ASSERT_TRUE(engine.refresh());
  EXPECT_EQ(pins.pinned_count(), 0u);
  for (const auto& options : representative_queries()) {
    EXPECT_EQ(engine_bytes(engine, options), oracle_bytes(dir, options));
  }
}

}  // namespace
}  // namespace gill::archive
