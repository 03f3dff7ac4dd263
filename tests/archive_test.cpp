// The archive store (DESIGN.md §10): segment format round-trips, wall-clock
// rotation, index-pruned queries, the crash-safety protocol (torn-write
// fault -> recovery seals and truncates, acknowledged records byte-identical)
// and the end-to-end data-retrieval path — loopback BGP peers feeding a
// Platform whose archive serves GET /v1/data as chunked framed MRT. Every
// read goes through the store's one reader, QueryEngine, run inline here
// (no pool, cache or pins; query_engine_test covers those).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive_writer.hpp"
#include "archive/bloom.hpp"
#include "archive/query_engine.hpp"
#include "archive/retention.hpp"
#include "archive/segment.hpp"
#include "collector/archive_routes.hpp"
#include "collector/platform.hpp"
#include "daemon/bmp_ingest.hpp"
#include "net/event_loop.hpp"
#include "net/http_endpoint.hpp"
#include "net/tcp_transport.hpp"
#include "parallel/thread_pool.hpp"
#include "wire/bmp.hpp"

namespace gill::archive {
namespace {

namespace fs = std::filesystem;
using daemon::SessionState;

net::Prefix pfx(const std::string& text) {
  return net::Prefix::parse(text).value();
}

bgp::Update make_update(VpId vp, Timestamp time, const std::string& prefix,
                        std::uint32_t tail_as = 64512) {
  bgp::Update update;
  update.vp = vp;
  update.time = time;
  update.prefix = pfx(prefix);
  update.path = bgp::AsPath{65010, 65020, tail_as};
  update.communities = {bgp::Community(65010, 1)};
  return update;
}

/// A fresh scratch directory under the build tree.
std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("gill_archive_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<std::uint8_t> encode(const std::vector<bgp::Update>& updates) {
  mrt::Writer writer;
  for (const auto& update : updates) writer.write_update(update);
  return writer.buffer();
}

/// The framed MRT `options` selects from `dir`, streamed by a fresh
/// inline engine.
std::string query_bytes(const std::string& dir,
                        const QueryOptions& options = {}) {
  metrics::Registry registry;
  QueryEngine engine({.directory = dir, .registry = &registry});
  EXPECT_TRUE(engine.open());
  const auto cursor = engine.query(options);
  std::string out;
  while (cursor->next_chunk(out)) {
  }
  return out;
}

/// query_bytes, decoded record by record.
std::vector<mrt::Reader::Record> query_records(
    const std::string& dir, const QueryOptions& options = {}) {
  const std::string bytes = query_bytes(dir, options);
  mrt::Reader reader(std::span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  std::vector<mrt::Reader::Record> records;
  while (auto record = reader.next()) records.push_back(std::move(*record));
  EXPECT_TRUE(reader.ok());
  return records;
}

/// The manifest snapshot an inline engine over `dir` opens with.
std::vector<SegmentMeta> engine_manifest(const std::string& dir) {
  metrics::Registry registry;
  QueryEngine engine({.directory = dir, .registry = &registry});
  EXPECT_TRUE(engine.open());
  return *engine.snapshot();
}

// ---------------------------------------------------------------------------
// Segment format: footer round-trip and torn-payload scanning.
// ---------------------------------------------------------------------------

TEST(SegmentFormat, FooterRoundTripsThroughTheFileImage) {
  std::vector<bgp::Update> updates = {
      make_update(3, 1000, "10.0.0.0/24"),
      make_update(1, 1005, "10.0.1.0/24"),
      make_update(3, 1090, "10.0.2.0/24"),
  };
  std::vector<std::uint8_t> file = encode(updates);
  SegmentMeta meta;
  meta.file = "seg-test.mrt";
  meta.payload_bytes = file.size();
  meta.raw_bytes = file.size();
  for (const auto& update : updates) meta.observe(update, false);
  EXPECT_EQ(meta.min_time, 1000u);
  EXPECT_EQ(meta.max_time, 1090u);
  EXPECT_EQ(meta.updates, 3u);
  EXPECT_EQ(meta.vps, (std::vector<VpId>{1, 3}));

  meta.bloom.finalize();  // the v2 footer carries the frozen filter
  append_footer(file, meta);
  auto parsed = read_footer(file);
  ASSERT_TRUE(parsed.has_value());
  parsed->file = meta.file;  // the footer does not carry the filename
  EXPECT_EQ(*parsed, meta);

  // A payload without a footer is not mistaken for a sealed segment.
  EXPECT_FALSE(read_footer(encode(updates)).has_value());
}

TEST(SegmentFormat, ManifestJsonRoundTrips) {
  SegmentMeta a;
  a.file = "seg-0000000900-000001.mrt";
  a.min_time = 930;
  a.max_time = 1170;
  a.updates = 12;
  a.rib_entries = 4;
  a.payload_bytes = 4096;
  a.vps = {0, 2, 9};
  SegmentMeta b;
  b.file = "seg-0000001800-000002.mrt";
  b.min_time = 1800;
  b.max_time = 1810;
  b.updates = 2;
  b.payload_bytes = 128;
  b.vps = {2};
  const auto parsed = manifest_from_json(manifest_to_json({a, b}));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, (std::vector<SegmentMeta>{a, b}));
  EXPECT_FALSE(manifest_from_json("{not json").has_value());
}

TEST(SegmentFormat, ScanTruncatesAtEveryTornTailBoundary) {
  // Fuzz the torn-write space exhaustively: cut the payload at EVERY byte
  // boundary inside the tail record. The scan must decode exactly the
  // complete records, report the last complete boundary, and never throw
  // or over-read (ASan/UBSan guard the latter under -L sanitize).
  const std::vector<bgp::Update> updates = {
      make_update(1, 900, "10.0.0.0/24"),
      make_update(2, 910, "10.1.0.0/24"),
      make_update(1, 920, "2001:db8::/48"),
  };
  const std::vector<std::uint8_t> payload = encode(updates);
  const std::vector<std::uint8_t> two = encode(
      {updates.begin(), updates.begin() + 2});
  const std::size_t tail_start = two.size();
  for (std::size_t cut = tail_start; cut < payload.size(); ++cut) {
    const auto span = std::span(payload).first(cut);
    const SegmentMeta meta = scan_payload(span);
    EXPECT_EQ(meta.payload_bytes, tail_start) << "cut at " << cut;
    EXPECT_EQ(meta.updates, 2u) << "cut at " << cut;
    EXPECT_EQ(meta.vps, (std::vector<VpId>{1, 2}));
  }
  // The full payload scans clean.
  const SegmentMeta whole = scan_payload(payload);
  EXPECT_EQ(whole.payload_bytes, payload.size());
  EXPECT_EQ(whole.updates, 3u);
}

// ---------------------------------------------------------------------------
// SegmentWriter: wall-clock rotation and the manifest.
// ---------------------------------------------------------------------------

TEST(SegmentWriter, RotatesOnWallClockBoundaries) {
  const std::string dir = scratch_dir("rotate");
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  SegmentWriter writer(config);  // inline I/O: deterministic
  ASSERT_TRUE(writer.open());

  // Three 15-minute windows: [900,1800), [1800,2700), [2700,3600).
  writer.store(make_update(0, 1000, "10.0.0.0/24"));
  writer.store(make_update(1, 1700, "10.0.1.0/24"));
  writer.store(make_update(0, 1800, "10.0.2.0/24"));  // crosses the boundary
  writer.store_rib_entry(make_update(1, 2000, "10.0.1.0/24"));
  writer.tick(2705);  // timer-driven rotation with no new record
  writer.store(make_update(2, 2710, "10.0.3.0/24"));
  writer.close();

  const auto manifest = writer.manifest();
  ASSERT_EQ(manifest.size(), 3u);
  EXPECT_EQ(manifest[0].min_time, 1000u);
  EXPECT_EQ(manifest[0].max_time, 1700u);
  EXPECT_EQ(manifest[0].updates, 2u);
  EXPECT_EQ(manifest[0].vps, (std::vector<VpId>{0, 1}));
  EXPECT_EQ(manifest[1].updates, 1u);
  EXPECT_EQ(manifest[1].rib_entries, 1u);
  EXPECT_EQ(manifest[2].min_time, 2710u);
  EXPECT_EQ(manifest[2].vps, (std::vector<VpId>{2}));
  EXPECT_EQ(writer.segments_sealed(), 3u);
  EXPECT_EQ(writer.records_appended(), 5u);

  // Every sealed file exists, parses, and the active artifact is gone.
  for (const auto& meta : manifest) {
    const auto file = read_file((fs::path(dir) / meta.file).string());
    ASSERT_TRUE(file.has_value()) << meta.file;
    auto footer = read_footer(*file);
    ASSERT_TRUE(footer.has_value()) << meta.file;
    footer->file = meta.file;  // the footer does not carry the filename
    EXPECT_EQ(*footer, meta);
  }
  EXPECT_FALSE(fs::exists(fs::path(dir) / kActiveSegmentName));

  // The reader sees the same manifest.
  EXPECT_EQ(engine_manifest(dir), manifest);
}

TEST(SegmentWriter, AsyncPoolWriterMatchesInlineResult) {
  metrics::Registry registry;
  par::ThreadPool pool(2, &registry);
  const std::string dir = scratch_dir("async");
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.flush_bytes = 64;  // many small async appends
  config.pool = &pool;
  config.registry = &registry;
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  std::vector<bgp::Update> sent;
  for (int i = 0; i < 200; ++i) {
    auto update = make_update(static_cast<VpId>(i % 5),
                              static_cast<Timestamp>(1000 + i * 20),
                              "10.2." + std::to_string(i % 250) + ".0/24");
    writer.store(update);
    sent.push_back(std::move(update));
  }
  writer.close();  // rotate + wait_idle: all I/O jobs drained
  EXPECT_FALSE(writer.failed());
  EXPECT_GE(writer.segments_sealed(), 4u);  // 200 * 20s spans >= 4 windows

  // The byte stream on disk is the exact append-order encoding: jobs were
  // serialized even though the pool has two workers.
  const std::string streamed = query_bytes(dir);
  const std::vector<std::uint8_t> expected = encode(sent);
  ASSERT_EQ(streamed.size(), expected.size());
  EXPECT_EQ(0, std::memcmp(streamed.data(), expected.data(),
                           expected.size()));
  EXPECT_GT(registry.counter_total("gill_archive_segments_written_total"), 0u);
  EXPECT_GT(registry.counter_total("gill_archive_bytes_written_total"), 0u);
}

// ---------------------------------------------------------------------------
// Queries: index pruning and per-record filters.
// ---------------------------------------------------------------------------

struct QueryFixture : ::testing::Test {
  std::string dir = scratch_dir("query");

  void SetUp() override {
    SegmentWriterConfig config;
    config.directory = dir;
    config.rotate_secs = 900;
    SegmentWriter writer(config);
    ASSERT_TRUE(writer.open());
    writer.store(make_update(0, 1000, "10.0.0.0/24"));
    writer.store(make_update(1, 1100, "10.1.0.0/24"));
    writer.store(make_update(0, 1900, "10.0.128.0/25"));
    writer.store(make_update(2, 2000, "192.168.0.0/16"));
    writer.store(make_update(1, 2800, "2001:db8::/48"));
    writer.close();
  }
};

TEST_F(QueryFixture, TimeWindowIsHalfOpenAndPrunesSegments) {
  metrics::Registry registry;
  QueryEngine engine({.directory = dir, .registry = &registry});
  ASSERT_TRUE(engine.open());
  ASSERT_EQ(engine.snapshot()->size(), 3u);

  QueryOptions options;
  options.start = 1100;
  options.end = 2000;  // excludes the t=2000 record
  // The [2700, 3600) window starts after the query ends: pruned unread.
  EXPECT_EQ(engine.query(options)->planned_segments(), 2u);
  EXPECT_EQ(engine.segments_pruned(), 1u);
  const auto records = query_records(dir, options);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].update.time, 1100u);
  EXPECT_EQ(records[1].update.time, 1900u);
}

TEST_F(QueryFixture, VpFilterUsesTheSegmentIndex) {
  metrics::Registry registry;
  QueryEngine engine({.directory = dir, .registry = &registry});
  ASSERT_TRUE(engine.open());
  QueryOptions options;
  options.vp = 2;
  const auto cursor = engine.query(options);
  // Only the [1800, 2700) window lists vp=2 in its footer; the other two
  // are pruned without being decoded.
  EXPECT_EQ(cursor->planned_segments(), 1u);
  EXPECT_EQ(engine.segments_pruned(), 2u);
  std::string bytes;
  while (cursor->next_chunk(bytes)) {
  }
  mrt::Reader reader(std::span(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  const auto record = reader.next();
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->update.prefix, pfx("192.168.0.0/16"));
  EXPECT_FALSE(reader.next().has_value());
  // Only the one matching record crossed the stream counter.
  EXPECT_EQ(cursor->records_streamed(), 1u);
  EXPECT_EQ(
      registry.counter_total("gill_archive_engine_records_streamed_total"),
      1u);
  EXPECT_EQ(registry.counter_total("gill_archive_engine_queries_total"), 1u);
}

TEST_F(QueryFixture, PrefixFilterMatchesEqualOrMoreSpecific) {
  QueryOptions options;
  options.prefix = pfx("10.0.0.0/16");
  const auto records = query_records(dir, options);
  // 10.0.0.0/24 and 10.0.128.0/25 are inside 10.0.0.0/16; 10.1.0.0/24,
  // 192.168.0.0/16 and the v6 prefix are not.
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].update.prefix, pfx("10.0.0.0/24"));
  EXPECT_EQ(records[1].update.prefix, pfx("10.0.128.0/25"));

  QueryOptions v6;
  v6.prefix = pfx("2001:db8::/32");
  const auto v6_records = query_records(dir, v6);
  ASSERT_EQ(v6_records.size(), 1u);
  EXPECT_EQ(v6_records[0].update.prefix, pfx("2001:db8::/48"));
}

TEST_F(QueryFixture, SegmentsJsonListsTheManifest) {
  metrics::Registry registry;
  QueryEngine engine({.directory = dir, .registry = &registry});
  ASSERT_TRUE(engine.open());
  const auto parsed = manifest_from_json(engine.segments_json());
  ASSERT_TRUE(parsed.has_value());
  // The operator form is the manifest without the bloom bits.
  std::vector<SegmentMeta> expected = *engine.snapshot();
  ASSERT_EQ(expected.size(), 3u);
  for (SegmentMeta& meta : expected) {
    EXPECT_FALSE(meta.bloom.empty());
    meta.bloom = PrefixBloom{};
  }
  EXPECT_EQ(*parsed, expected);
}

// ---------------------------------------------------------------------------
// Crash safety: the torn-write fault kills the writer mid-segment; reopening
// the store recovers, truncates the torn tail and serves every acknowledged
// record byte-identically.
// ---------------------------------------------------------------------------

TEST(CrashSafety, RecoveryAfterTornWriteServesAcknowledgedRecords) {
  const std::string dir = scratch_dir("crash");
  std::vector<bgp::Update> acknowledged;
  {
    SegmentWriterConfig config;
    config.directory = dir;
    config.rotate_secs = 900;
    SegmentWriter writer(config);
    ASSERT_TRUE(writer.open());
    // One sealed segment, then a half-written active segment.
    writer.store(make_update(0, 1000, "10.0.0.0/24"));
    writer.store(make_update(1, 1100, "10.0.1.0/24"));
    writer.store(make_update(0, 1900, "10.0.2.0/24"));  // seals window 1
    acknowledged.push_back(make_update(0, 1000, "10.0.0.0/24"));
    acknowledged.push_back(make_update(1, 1100, "10.0.1.0/24"));
    // These two are flushed (write + fsync completed): acknowledged.
    writer.store(make_update(2, 1950, "10.0.3.0/24"));
    writer.flush();
    acknowledged.push_back(make_update(0, 1900, "10.0.2.0/24"));
    acknowledged.push_back(make_update(2, 1950, "10.0.3.0/24"));
    // The crash: the next append writes only 7 bytes of its chunk (a torn
    // record), skips the fsync and the writer dies — as if the process
    // was killed inside write(). Nothing after this is acknowledged.
    writer.fault_torn_write(7);
    writer.store(make_update(1, 2000, "10.0.4.0/24"));
    writer.flush();
    EXPECT_TRUE(writer.failed());
    // Later appends on a dead writer are dropped, not crashes.
    writer.store(make_update(1, 2100, "10.0.5.0/24"));
  }
  // The store now holds one sealed segment, a torn current.part and a
  // manifest that predates the crash.
  ASSERT_TRUE(fs::exists(fs::path(dir) / kActiveSegmentName));

  // Reopen: a new writer's open() runs the recovery scan.
  metrics::Registry registry;
  SegmentWriterConfig config;
  config.directory = dir;
  config.registry = &registry;
  SegmentWriter reopened(config);
  ASSERT_TRUE(reopened.open());
  EXPECT_FALSE(fs::exists(fs::path(dir) / kActiveSegmentName));
  EXPECT_EQ(registry.counter_total("gill_archive_recovered_segments_total"),
            1u);
  EXPECT_EQ(registry.counter_total("gill_archive_truncated_bytes_total"), 7u);

  // Every acknowledged record comes back byte-identically; the torn tail
  // is gone.
  ASSERT_EQ(engine_manifest(dir).size(), 2u);
  const std::string streamed = query_bytes(dir);
  const std::vector<std::uint8_t> expected = encode(acknowledged);
  ASSERT_EQ(streamed.size(), expected.size());
  EXPECT_EQ(0,
            std::memcmp(streamed.data(), expected.data(), expected.size()));

  // Recovery is idempotent: a second open changes nothing.
  const auto before = load_manifest(dir);
  const auto again = recover_store(dir);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->recovered_segments, 0u);
  EXPECT_EQ(load_manifest(dir), before);
}

TEST(CrashSafety, RecoverySealsEveryTornTailLength) {
  // Drive the recovery scan across every torn-tail length of the final
  // record: whatever prefix of the tail record hits the disk, reopening
  // yields exactly the two complete records.
  const std::vector<bgp::Update> updates = {
      make_update(0, 1000, "10.0.0.0/24"),
      make_update(1, 1050, "10.0.1.0/24"),
      make_update(2, 1090, "10.0.2.0/24"),
  };
  const std::vector<std::uint8_t> payload = encode(updates);
  const std::size_t tail_start =
      encode({updates.begin(), updates.begin() + 2}).size();
  const std::vector<std::uint8_t> complete = encode(
      {updates.begin(), updates.begin() + 2});
  for (std::size_t cut = tail_start + 1; cut < payload.size(); ++cut) {
    const std::string dir =
        scratch_dir("torn_" + std::to_string(cut));
    ASSERT_TRUE(write_file_atomic(
        (fs::path(dir) / kActiveSegmentName).string(),
        std::span(payload).first(cut)));
    const auto result = recover_store(dir);
    ASSERT_TRUE(result.has_value()) << "cut at " << cut;
    EXPECT_EQ(result->recovered_segments, 1u);
    EXPECT_EQ(result->truncated_bytes, cut - tail_start);
    const std::string streamed = query_bytes(dir);
    ASSERT_EQ(streamed.size(), complete.size()) << "cut at " << cut;
    EXPECT_EQ(0, std::memcmp(streamed.data(), complete.data(),
                             complete.size()));
    fs::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// End to end: loopback BGP peers -> Platform with an archive -> rotation ->
// GET /v1/data (collect::route_archive, the collector's handler) returns
// exactly one VP's window, decodable by the MRT reader.
// ---------------------------------------------------------------------------

/// De-chunks a Transfer-Encoding: chunked HTTP body.
std::string dechunk(const std::string& body) {
  std::string out;
  std::size_t at = 0;
  for (;;) {
    const std::size_t line_end = body.find("\r\n", at);
    if (line_end == std::string::npos) break;
    const std::size_t size =
        std::stoul(body.substr(at, line_end - at), nullptr, 16);
    if (size == 0) break;
    out += body.substr(line_end + 2, size);
    at = line_end + 2 + size + 2;  // skip data + trailing CRLF
  }
  return out;
}

/// One GET over loopback against an endpoint served by `loop`: the raw
/// response (status line, headers, body) as read until the server closes.
std::string http_get(net::EventLoop& loop, std::uint16_t port,
                     const std::string& target) {
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n";
  std::string response;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  EXPECT_GE(fd, 0);
  if (fd < 0) return response;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  std::size_t sent = 0;
  bool closed = false;
  for (int i = 0; i < 3000 && !closed; ++i) {
    loop.run_once(1);
    if (sent < request.size()) {
      const ssize_t n = ::send(fd, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n > 0) sent += static_cast<std::size_t>(n);
    }
    char buffer[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, buffer, sizeof buffer, 0);
      if (n > 0) {
        response.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0) closed = true;
      break;
    }
  }
  ::close(fd);
  return response;
}

TEST(EndToEnd, DataEndpointServesOneVpsWindowAsFramedMrt) {
  net::EventLoop loop;
  metrics::Registry registry;
  const std::string dir = scratch_dir("e2e");
  SegmentWriterConfig archive_config;
  archive_config.directory = dir;
  archive_config.rotate_secs = 900;
  archive_config.registry = &registry;
  SegmentWriter writer(archive_config);
  ASSERT_TRUE(writer.open());

  collect::PlatformConfig platform_config;
  platform_config.registry = &registry;
  collect::Platform platform(platform_config);
  platform.set_archive(&writer);

  // The collectord accept path.
  std::map<bgp::VpId, net::TcpTransport*> transports;
  std::vector<bgp::VpId> accepted;
  net::TcpListener listener(loop, &registry);
  ASSERT_TRUE(listener.listen(
      "127.0.0.1", 0, [&](int fd, std::string, std::uint16_t) {
        auto transport = std::make_unique<net::TcpTransport>(
            loop, net::Role::kDaemonSide, &registry);
        auto* raw = transport.get();
        transport->adopt(fd);
        const bgp::VpId vp =
            platform.add_remote_peer(0, 1000, std::move(transport));
        transports[vp] = raw;
        accepted.push_back(vp);
      }));

  // The collectord HTTP plane: its archive routes over one shared engine,
  // refreshed whenever the writer's manifest generation moves.
  QueryEngine engine({.directory = dir, .registry = &registry});
  ASSERT_TRUE(engine.open());
  net::HttpEndpoint http(loop, &registry);
  ASSERT_TRUE(collect::route_archive(http, engine));
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  // Two routers peer in over real sockets.
  bgp::Timestamp now = 1000;
  std::uint64_t seen_generation = 0;
  const auto pump = [&] {
    platform.step(now);
    for (auto& [vp, transport] : transports) transport->sync();
    writer.tick(now);
    if (writer.manifest_generation() != seen_generation) {
      seen_generation = writer.manifest_generation();
      engine.refresh();
    }
  };
  struct Client {
    net::TcpTransport transport;
    daemon::FakePeer peer;
    Client(net::EventLoop& loop, metrics::Registry& registry,
           bgp::AsNumber as, std::uint16_t port)
        : transport(loop, net::Role::kPeerSide, &registry),
          peer(as, transport) {
      EXPECT_TRUE(transport.dial("127.0.0.1", port));
    }
  };
  Client alpha(loop, registry, 65010, listener.port());
  Client beta(loop, registry, 65020, listener.port());
  const auto drive = [&](auto done, int iterations = 600) {
    for (int i = 0; i < iterations; ++i) {
      loop.run_once(2);
      pump();
      alpha.peer.poll();
      alpha.transport.sync();
      beta.peer.poll();
      beta.transport.sync();
      if (done()) return true;
    }
    return done();
  };
  ASSERT_TRUE(drive([&] {
    return accepted.size() == 2 && alpha.peer.established() &&
           beta.peer.established();
  }));
  // Resolve which accepted VP is alpha's while the sessions are live (a
  // later hold-timer expiry resets the daemons' learned peer AS).
  const bgp::VpId alpha_vp =
      platform.daemon_of(accepted[0]).peer_as() == 65010 ? accepted[0]
                                                         : accepted[1];
  ASSERT_EQ(platform.daemon_of(alpha_vp).peer_as(), 65010u);

  // Each router announces a distinct block, stamped inside [900, 1800).
  for (int i = 0; i < 8; ++i) {
    alpha.peer.send_update(
        make_update(0, 0, "10.10." + std::to_string(i) + ".0/24"));
    beta.peer.send_update(
        make_update(0, 0, "10.20." + std::to_string(i) + ".0/24"));
  }
  ASSERT_TRUE(drive([&] { return writer.records_appended() == 16; }));

  // The wall clock crosses the boundary: the window seals.
  now = 1805;
  ASSERT_TRUE(drive([&] { return writer.segments_sealed() == 1; }));

  // Fetch one VP's window over HTTP and decode it with the MRT reader.
  const std::string response =
      http_get(loop, http.port(),
               "/v1/data?vp=" + std::to_string(alpha_vp) +
                   "&start=900&end=1800");
  ASSERT_TRUE(response.starts_with("HTTP/1.1 200 OK\r\n")) << response;
  ASSERT_NE(response.find("Transfer-Encoding: chunked\r\n"),
            std::string::npos);
  const std::string body = dechunk(
      response.substr(response.find("\r\n\r\n") + 4));

  mrt::Reader mrt_reader(
      std::span(reinterpret_cast<const std::uint8_t*>(body.data()),
                body.size()));
  std::vector<bgp::Update> fetched;
  while (auto record = mrt_reader.next()) fetched.push_back(record->update);
  EXPECT_TRUE(mrt_reader.ok());
  // Exactly alpha's eight announcements, within the window, nothing from
  // beta's VP.
  ASSERT_EQ(fetched.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    const auto& update = fetched[static_cast<std::size_t>(i)];
    EXPECT_EQ(update.vp, alpha_vp);
    EXPECT_GE(update.time, 900u);
    EXPECT_LT(update.time, 1800u);
    EXPECT_EQ(update.prefix, pfx("10.10." + std::to_string(i) + ".0/24"));
  }
}

TEST(EndToEnd, DataEndpointRejectsMalformedParamsNamingTheValue) {
  net::EventLoop loop;
  metrics::Registry registry;
  QueryEngine engine(
      {.directory = scratch_dir("bad_param"), .registry = &registry});
  ASSERT_TRUE(engine.open());
  net::HttpEndpoint http(loop, &registry);
  ASSERT_TRUE(collect::route_archive(http, engine));
  ASSERT_TRUE(http.listen("127.0.0.1", 0));

  // start/end overflow or are not decimal, vp does not fit 32 bits, the
  // prefix length exceeds /32: each is a 400 naming the offending value.
  for (const auto& [param, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"start", "abc"},
           {"end", "18446744073709551616"},
           {"vp", "4294967296"},
           {"prefix", "10.0.0.0/33"}}) {
    const std::string response =
        http_get(loop, http.port(), "/v1/data?" + param + "=" + value);
    EXPECT_TRUE(response.starts_with("HTTP/1.1 400 ")) << response;
    const std::string body = response.substr(response.find("\r\n\r\n") + 4);
    EXPECT_NE(body.find("\"code\":\"bad_param\""), std::string::npos)
        << body;
    EXPECT_NE(body.find("bad " + param + " '" + value + "'"),
              std::string::npos)
        << body;
  }
  // In-range values are served (an empty store: an empty body).
  EXPECT_TRUE(http_get(loop, http.port(),
                       "/v1/data?start=1&end=2&vp=4294967295&prefix="
                       "10.0.0.0/32")
                  .starts_with("HTTP/1.1 200 OK\r\n"));
}

// BMP feeds archive through the same sink as BGP sessions: a Route
// Monitoring announcement fed into BmpIngest over a SegmentWriter comes
// back from the query engine, stamped with the BMP per-peer time.
TEST(EndToEnd, BmpRouteMonitoringReachesTheArchive) {
  const std::string dir = scratch_dir("bmp");
  metrics::Registry registry;
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.registry = &registry;
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  daemon::BmpIngest ingest(100000, nullptr, &writer, &registry);

  wire::BmpRouteMonitoring monitoring;
  monitoring.peer.address = net::IpAddress::parse("192.0.2.9").value();
  monitoring.peer.as = 65010;
  monitoring.peer.timestamp_sec = 1000;
  monitoring.update.nlri = {pfx("10.9.0.0/24")};
  monitoring.update.path = bgp::AsPath{65010, 64500};
  monitoring.update.next_hop = 1;
  ingest.feed(wire::encode_bmp(monitoring), /*now=*/1500);
  EXPECT_EQ(ingest.stats().updates_stored, 1u);
  writer.close();

  const auto records = query_records(dir);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].update.vp, 100000u);
  EXPECT_EQ(records[0].update.time, 1000);
  EXPECT_EQ(records[0].update.prefix, pfx("10.9.0.0/24"));
  EXPECT_EQ(records[0].update.path, (bgp::AsPath{65010, 64500}));
  EXPECT_FALSE(records[0].update.withdrawal);
}

// A BMP per-peer timestamp ahead of the feed clock is archived at the feed
// clock: it must not open a far-future window that swallows every later
// record and never seals. Here the timer seals the current window and
// both the future-stamped record and a later session record are served.
TEST(EndToEnd, FutureStampedBmpRecordDoesNotHoldBackTheTimer) {
  const std::string dir = scratch_dir("bmp_future");
  metrics::Registry registry;
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.registry = &registry;
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  daemon::BmpIngest ingest(100000, nullptr, &writer, &registry);

  wire::BmpRouteMonitoring monitoring;
  monitoring.peer.address = net::IpAddress::parse("192.0.2.9").value();
  monitoring.peer.as = 65010;
  monitoring.peer.timestamp_sec = 0xFFFFFFFF;
  monitoring.update.nlri = {pfx("10.9.0.0/24")};
  monitoring.update.path = bgp::AsPath{65010, 64500};
  monitoring.update.next_hop = 1;
  ingest.feed(wire::encode_bmp(monitoring), /*now=*/1000);
  writer.store(make_update(1, 1100, "10.1.0.0/24"));
  writer.tick(1800);  // the window [900, 1800) is over

  const auto records = query_records(dir);
  ASSERT_EQ(records.size(), 2u) << "the timer sealed nothing";
  EXPECT_EQ(records[0].update.vp, 100000u);
  EXPECT_EQ(records[0].update.time, 1000);
  EXPECT_EQ(records[1].update.vp, 1u);
  EXPECT_EQ(records[1].update.time, 1100);
  writer.close();
}

// ---------------------------------------------------------------------------
// Operational degradation: a full disk drops data, never the collector.
// ---------------------------------------------------------------------------

TEST(SegmentWriter, EnospcDegradesToCountedDropsAndStaysAlive) {
  const std::string dir = scratch_dir("enospc");
  metrics::Registry registry;
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.flush_bytes = 1;  // every record hits the disk path immediately
  config.registry = &registry;
  SegmentWriter writer(config);  // inline I/O: deterministic
  ASSERT_TRUE(writer.open());

  writer.store(make_update(0, 1000, "10.0.0.0/24"));
  ASSERT_EQ(writer.enospc_events(), 0u);

  // The disk fills for exactly one append: that chunk is dropped and
  // counted, the writer does NOT die (contrast fault_torn_write).
  writer.fault_enospc();
  writer.store(make_update(0, 1010, "10.0.1.0/24"));
  EXPECT_EQ(writer.enospc_events(), 1u);
  EXPECT_FALSE(writer.failed());

  // The operator freed space: collection resumes without intervention.
  writer.store(make_update(0, 1020, "10.0.2.0/24"));
  writer.close();
  EXPECT_FALSE(writer.failed());
  EXPECT_EQ(writer.enospc_events(), 1u);
  EXPECT_EQ(registry.counter_total("gill_archive_enospc_events_total"), 1u);
  EXPECT_GT(
      registry.counter_total("gill_archive_enospc_dropped_bytes_total"), 0u);

  // The window still sealed into a real, footered segment on disk.
  const auto manifest = writer.manifest();
  ASSERT_EQ(manifest.size(), 1u);
  const auto file = read_file((fs::path(dir) / manifest[0].file).string());
  ASSERT_TRUE(file.has_value());
  EXPECT_TRUE(read_footer(*file).has_value());
}

// ---------------------------------------------------------------------------
// PrefixBloom: ancestor-insertion semantics and serialization round-trips.
// ---------------------------------------------------------------------------

TEST(PrefixBloom, AncestorKeysAnswerEqualOrMoreSpecific) {
  PrefixBloom bloom;
  bloom.observe(pfx("10.0.0.0/24"));
  bloom.observe(pfx("2001:db8:1::/48"));
  bloom.finalize();
  ASSERT_FALSE(bloom.empty());
  // The record prefix itself and every less-specific ancestor must match:
  // a query at any of those lengths covers the stored record.
  EXPECT_TRUE(bloom.may_cover(pfx("10.0.0.0/24")));
  EXPECT_TRUE(bloom.may_cover(pfx("10.0.0.0/16")));
  EXPECT_TRUE(bloom.may_cover(pfx("10.0.0.0/8")));
  EXPECT_TRUE(bloom.may_cover(pfx("0.0.0.0/0")));
  EXPECT_TRUE(bloom.may_cover(pfx("2001:db8::/32")));
  EXPECT_TRUE(bloom.may_cover(pfx("2001:db8:1::/48")));
  // Disjoint space prunes, and so does a query MORE specific than the
  // stored record (10.0.0.0/25 does not cover the stored /24). These are
  // deterministic given the fixed hash function.
  EXPECT_FALSE(bloom.may_cover(pfx("192.168.0.0/16")));
  EXPECT_FALSE(bloom.may_cover(pfx("10.0.0.0/25")));
  EXPECT_FALSE(bloom.may_cover(pfx("2001:db9::/32")));
}

TEST(PrefixBloom, EmptyFilterIsMatchAll) {
  PrefixBloom bloom;  // never observed, never finalized: a v1 segment
  EXPECT_TRUE(bloom.empty());
  EXPECT_TRUE(bloom.may_cover(pfx("10.0.0.0/8")));
  EXPECT_TRUE(bloom.may_cover(pfx("2001:db8::/32")));
  bloom.finalize();  // observe-less finalize stays match-all
  EXPECT_TRUE(bloom.empty());
  EXPECT_TRUE(bloom.may_cover(pfx("192.168.0.0/24")));
}

TEST(PrefixBloom, SerializeAndHexFormsRoundTrip) {
  PrefixBloom bloom;
  for (int i = 0; i < 64; ++i) {
    bloom.observe(pfx("10." + std::to_string(i) + ".0.0/16"));
  }
  bloom.finalize();
  std::vector<std::uint8_t> bytes;
  bloom.serialize(bytes);
  std::size_t at = 0;
  const auto binary = PrefixBloom::deserialize(bytes, at);
  ASSERT_TRUE(binary.has_value());
  EXPECT_EQ(at, bytes.size());
  EXPECT_EQ(*binary, bloom);
  const auto hex = PrefixBloom::from_hex(bloom.to_hex(), bloom.hashes());
  ASSERT_TRUE(hex.has_value());
  EXPECT_EQ(*hex, bloom);
}

// ---------------------------------------------------------------------------
// Footer/manifest versioning: v1 segments keep opening, mixed directories
// serve, and prefix queries fall back to scan-all where no bloom exists.
// ---------------------------------------------------------------------------

TEST(SegmentFormat, V1FooterOpensAsRawWithMatchAllBloom) {
  const std::vector<bgp::Update> updates = {
      make_update(0, 1000, "10.0.0.0/24"),
      make_update(1, 1100, "10.1.0.0/24"),
  };
  std::vector<std::uint8_t> file = encode(updates);
  SegmentMeta meta;
  meta.payload_bytes = file.size();
  for (const auto& update : updates) meta.observe(update, false);
  append_footer_v1(file, meta);
  const auto parsed = read_footer(file);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->codec, kCodecNone);
  EXPECT_EQ(parsed->raw_bytes, parsed->payload_bytes);
  EXPECT_TRUE(parsed->bloom.empty());
  EXPECT_EQ(parsed->min_time, 1000u);
  EXPECT_EQ(parsed->updates, 2u);
  EXPECT_EQ(parsed->vps, (std::vector<VpId>{0, 1}));
}

TEST(MixedVersions, V1AndV2SegmentsServeFromOneDirectory) {
  const std::string dir = scratch_dir("mixed");
  // Fabricate a pre-v2 store: one sealed segment with a v1 footer and no
  // manifest row — exactly what a directory written before the format bump
  // looks like after a crash-between-rename-and-manifest.
  const std::vector<bgp::Update> old_updates = {
      make_update(0, 1000, "10.0.0.0/24"),
      make_update(1, 1100, "172.16.0.0/24"),
  };
  std::vector<std::uint8_t> v1_file = encode(old_updates);
  SegmentMeta v1_meta;
  v1_meta.payload_bytes = v1_file.size();
  for (const auto& update : old_updates) v1_meta.observe(update, false);
  append_footer_v1(v1_file, v1_meta);
  ASSERT_TRUE(write_file_atomic(
      (fs::path(dir) / segment_file_name(900, 1)).string(), v1_file));

  // A current writer adopts the v1 segment and seals a v2 one next to it.
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.compress = compression_available();
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  writer.store(make_update(2, 2000, "10.0.5.0/24"));
  writer.store(make_update(2, 2100, "192.168.1.0/24"));
  writer.close();

  const auto manifest = engine_manifest(dir);
  ASSERT_EQ(manifest.size(), 2u);
  EXPECT_EQ(manifest[0].codec, kCodecNone);
  EXPECT_TRUE(manifest[0].bloom.empty());
  EXPECT_FALSE(manifest[1].bloom.empty());

  // A prefix query crosses both: the v1 segment has no bloom and falls
  // back to scan-all (its matching record is found), the v2 segment is
  // answered through its bloom.
  QueryOptions options;
  options.prefix = pfx("10.0.0.0/8");
  const auto records = query_records(dir, options);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].update.prefix, pfx("10.0.0.0/24"));
  EXPECT_EQ(records[1].update.prefix, pfx("10.0.5.0/24"));
}

// ---------------------------------------------------------------------------
// Compression: sealed payloads round-trip byte-identically and the crash
// protocol is untouched (the active file is always raw).
// ---------------------------------------------------------------------------

TEST(Compression, CompressedSealRoundTripsByteIdentically) {
  if (!compression_available()) GTEST_SKIP() << "build lacks zstd";
  const std::string dir = scratch_dir("zstd");
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.compress = true;
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  std::vector<bgp::Update> sent;
  for (int i = 0; i < 120; ++i) {
    auto update = make_update(static_cast<VpId>(i % 4),
                              static_cast<Timestamp>(1000 + i * 30),
                              "10.3." + std::to_string(i % 200) + ".0/24");
    writer.store(update);
    sent.push_back(std::move(update));
  }
  writer.close();
  EXPECT_FALSE(writer.failed());

  const auto manifest = writer.manifest();
  ASSERT_GE(manifest.size(), 3u);
  for (const auto& meta : manifest) {
    EXPECT_EQ(meta.codec, kCodecZstd) << meta.file;
    EXPECT_GT(meta.raw_bytes, 0u);
    // The footer's payload size is the on-disk (compressed) size.
    const auto file = read_file((fs::path(dir) / meta.file).string());
    ASSERT_TRUE(file.has_value()) << meta.file;
    const auto footer = read_footer(*file);
    ASSERT_TRUE(footer.has_value()) << meta.file;
    EXPECT_EQ(footer->payload_bytes, meta.payload_bytes);
    EXPECT_EQ(footer->raw_bytes, meta.raw_bytes);
    EXPECT_LT(meta.payload_bytes, meta.raw_bytes);  // MRT framing compresses
  }

  // The stream a reader serves is byte-identical to the raw append order —
  // compression is invisible to consumers.
  const std::string streamed = query_bytes(dir);
  const std::vector<std::uint8_t> expected = encode(sent);
  ASSERT_EQ(streamed.size(), expected.size());
  EXPECT_EQ(0,
            std::memcmp(streamed.data(), expected.data(), expected.size()));
}

TEST(Compression, TornTailRecoveryStillWorksWithCompressionOn) {
  if (!compression_available()) GTEST_SKIP() << "build lacks zstd";
  const std::string dir = scratch_dir("zstd_crash");
  std::vector<bgp::Update> acknowledged;
  {
    SegmentWriterConfig config;
    config.directory = dir;
    config.rotate_secs = 900;
    config.compress = true;
    SegmentWriter writer(config);
    ASSERT_TRUE(writer.open());
    writer.store(make_update(0, 1000, "10.0.0.0/24"));
    writer.store(make_update(0, 1900, "10.0.1.0/24"));  // seals window 1
    acknowledged.push_back(make_update(0, 1000, "10.0.0.0/24"));
    writer.flush();
    acknowledged.push_back(make_update(0, 1900, "10.0.1.0/24"));
    writer.fault_torn_write(7);
    writer.store(make_update(1, 2000, "10.0.2.0/24"));
    writer.flush();
    EXPECT_TRUE(writer.failed());
  }
  // The crash artifact is RAW framed MRT even though the store compresses:
  // recovery's scan_payload applies unchanged.
  ASSERT_TRUE(fs::exists(fs::path(dir) / kActiveSegmentName));
  SegmentWriterConfig config;
  config.directory = dir;
  config.compress = true;
  SegmentWriter reopened(config);
  ASSERT_TRUE(reopened.open());
  EXPECT_FALSE(fs::exists(fs::path(dir) / kActiveSegmentName));

  const auto manifest = engine_manifest(dir);
  ASSERT_EQ(manifest.size(), 2u);
  EXPECT_EQ(manifest[0].codec, kCodecZstd);   // sealed pre-crash
  EXPECT_EQ(manifest[1].codec, kCodecNone);   // recovery seals raw
  const std::string streamed = query_bytes(dir);
  const std::vector<std::uint8_t> expected = encode(acknowledged);
  ASSERT_EQ(streamed.size(), expected.size());
  EXPECT_EQ(0,
            std::memcmp(streamed.data(), expected.data(), expected.size()));
}

// ---------------------------------------------------------------------------
// Retention/GC: policy selection, crash-safe deletion, pin protocol.
// ---------------------------------------------------------------------------

SegmentMeta fake_meta(const std::string& file, Timestamp min_time,
                      Timestamp max_time, std::uint64_t bytes) {
  SegmentMeta meta;
  meta.file = file;
  meta.min_time = min_time;
  meta.max_time = max_time;
  meta.payload_bytes = bytes;
  meta.raw_bytes = bytes;
  return meta;
}

TEST(Retention, SelectExpiredByAgeThenByteBudget) {
  const std::vector<SegmentMeta> manifest = {
      fake_meta("a", 900, 1790, 100),
      fake_meta("b", 1800, 2690, 100),
      fake_meta("c", 2700, 3590, 100),
      fake_meta("d", 3600, 4490, 100),
  };
  RetentionPolicy age_only;
  age_only.max_age_secs = 1000;
  // now=3700: horizon 2700 — windows whose newest record predates it go.
  EXPECT_EQ(select_expired(manifest, age_only, 3700),
            (std::vector<std::size_t>{0, 1}));

  RetentionPolicy bytes_only;
  bytes_only.max_bytes = 250;  // 400 bytes stored: shed oldest until <= 250
  EXPECT_EQ(select_expired(manifest, bytes_only, 5000),
            (std::vector<std::size_t>{0, 1}));

  RetentionPolicy both;
  both.max_age_secs = 1000;
  both.max_bytes = 150;  // age kills {0,1}; budget then sheds 2 as well
  EXPECT_EQ(select_expired(manifest, both, 3700),
            (std::vector<std::size_t>{0, 1, 2}));

  EXPECT_TRUE(select_expired(manifest, RetentionPolicy{}, 9999).empty());
}

TEST(Retention, GcDeletesOldestFirstAndManifestStaysConsistent) {
  const std::string dir = scratch_dir("gc");
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  for (int w = 0; w < 3; ++w) {
    writer.store(make_update(0, static_cast<Timestamp>(1000 + w * 900),
                             "10.0." + std::to_string(w) + ".0/24"));
  }
  writer.close();
  auto manifest = writer.manifest();
  ASSERT_EQ(manifest.size(), 3u);

  RetentionPolicy policy;
  policy.max_age_secs = 900;
  const auto result =
      run_gc(dir, manifest, policy, nullptr, /*now=*/manifest[1].max_time +
                                                 policy.max_age_secs + 1);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->deleted_files.size(), 2u);
  EXPECT_EQ(result->deleted_files[0], manifest[0].file);
  EXPECT_EQ(result->deleted_files[1], manifest[1].file);
  EXPECT_GT(result->deleted_bytes, 0u);
  ASSERT_EQ(result->remaining.size(), 1u);
  EXPECT_FALSE(fs::exists(fs::path(dir) / manifest[0].file));
  EXPECT_FALSE(fs::exists(fs::path(dir) / manifest[1].file));
  EXPECT_TRUE(fs::exists(fs::path(dir) / manifest[2].file));
  // The on-disk manifest and a fresh load agree with the pass's result.
  EXPECT_EQ(load_manifest(dir), result->remaining);
  // The survivor still serves.
  EXPECT_EQ(query_records(dir).size(), 1u);
}

TEST(Retention, GcSparesPinnedSegmentsUntilUnpinned) {
  const std::string dir = scratch_dir("gc_pins");
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  SegmentWriter writer(config);
  ASSERT_TRUE(writer.open());
  writer.store(make_update(0, 1000, "10.0.0.0/24"));
  writer.store(make_update(0, 1900, "10.0.1.0/24"));
  writer.close();
  const auto manifest = writer.manifest();
  ASSERT_EQ(manifest.size(), 2u);

  SegmentPins pins;
  pins.pin({manifest[0].file});  // a live cursor holds the oldest window
  RetentionPolicy policy;
  policy.max_age_secs = 1;
  auto result = run_gc(dir, manifest, policy, &pins, /*now=*/100000);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->skipped_pinned, 1u);
  ASSERT_EQ(result->deleted_files.size(), 1u);
  EXPECT_EQ(result->deleted_files[0], manifest[1].file);
  EXPECT_TRUE(fs::exists(fs::path(dir) / manifest[0].file));
  // The spared window stayed in the manifest: a later pass sees it again.
  ASSERT_EQ(result->remaining.size(), 1u);
  EXPECT_EQ(result->remaining[0].file, manifest[0].file);

  pins.unpin({manifest[0].file});
  EXPECT_EQ(pins.pinned_count(), 0u);
  result = run_gc(dir, load_manifest(dir), policy, &pins, /*now=*/100000);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->skipped_pinned, 0u);
  ASSERT_EQ(result->deleted_files.size(), 1u);
  EXPECT_FALSE(fs::exists(fs::path(dir) / manifest[0].file));
  EXPECT_TRUE(result->remaining.empty());
}

TEST(Retention, WriterRetentionJobUpdatesManifestAndGeneration) {
  const std::string dir = scratch_dir("gc_writer");
  metrics::Registry registry;
  SegmentWriterConfig config;
  config.directory = dir;
  config.rotate_secs = 900;
  config.registry = &registry;
  SegmentWriter writer(config);  // inline jobs: deterministic
  ASSERT_TRUE(writer.open());
  for (int w = 0; w < 3; ++w) {
    writer.store(make_update(0, static_cast<Timestamp>(1000 + w * 900),
                             "10.0." + std::to_string(w) + ".0/24"));
  }
  writer.rotate_now();
  const std::uint64_t generation = writer.manifest_generation();
  EXPECT_EQ(generation, 3u);  // one bump per seal

  std::vector<std::string> invalidated;
  RetentionPolicy policy;
  policy.max_bytes = 1;  // condemn every window
  writer.run_retention(policy, nullptr, /*now=*/100000,
                       [&](const std::string& file) {
                         invalidated.push_back(file);
                       });
  EXPECT_EQ(writer.manifest_generation(), generation + 1);
  EXPECT_TRUE(writer.manifest().empty());
  EXPECT_EQ(invalidated.size(), 3u);
  EXPECT_EQ(registry.counter_total("gill_archive_gc_deleted_segments_total"),
            3u);
  EXPECT_TRUE(load_manifest(dir).empty());
  // A disabled policy is a no-op, not a delete-everything.
  writer.run_retention(RetentionPolicy{}, nullptr, 100000);
  EXPECT_EQ(writer.manifest_generation(), generation + 1);
  writer.close();
}

}  // namespace
}  // namespace gill::archive
