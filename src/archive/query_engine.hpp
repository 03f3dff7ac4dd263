// The archive query engine (DESIGN.md §10, §15): the segment store's one
// reader. It answers per-window, per-VP, per-prefix queries over a
// directory of sealed segments and streams the matching records out as
// framed MRT, copied verbatim from the segment payloads. It:
//
//  - prunes on the manifest before opening anything: a segment is scanned
//    only when its time range, VP set and per-prefix bloom filter can
//    match the query;
//  - fans the surviving segments out across a par::ThreadPool — each
//    segment is scanned by a self-contained task — and re-merges results
//    in manifest order, so the output bytes are identical to the inline
//    (pool-less) path at any thread count;
//  - reads payloads through the shared SegmentCache, so hot windows are
//    served without touching disk;
//  - pins its manifest snapshot in the SegmentPins ledger for the cursor's
//    lifetime, so a retention pass never deletes a segment out from under
//    an in-flight query.
//
// Pool, cache and pins are each optional; with none of them the engine
// scans one segment at a time on the caller's thread.
//
// One QueryEngine is shared by every HTTP request; refresh() swaps in a
// new manifest snapshot (cheap shared_ptr swap) when the writer seals or
// GCs, and cursors keep streaming from the snapshot they started with.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "archive/archive_reader.hpp"
#include "archive/retention.hpp"
#include "archive/segment.hpp"
#include "archive/segment_cache.hpp"
#include "metrics/metrics.hpp"
#include "parallel/thread_pool.hpp"

namespace gill::archive {

struct QueryEngineConfig {
  std::string directory;
  /// Scan executor; nullptr scans every segment inline (serial path).
  par::ThreadPool* pool = nullptr;
  /// Hot-payload cache shared across requests; nullptr loads from disk.
  SegmentCache* cache = nullptr;
  /// Cursor pin ledger shared with GC; nullptr disables pinning.
  SegmentPins* pins = nullptr;
  /// Segment scans in flight per cursor (prefetch depth).
  std::size_t max_parallel_segments = 4;
  /// Registry hosting gill_archive_engine_*; nullptr uses the default.
  metrics::Registry* registry = nullptr;
};

class QueryEngine;

/// Streams one query's matching records as framed MRT bytes, scanning
/// surviving segments on the engine's pool. The engine must outlive the
/// cursor. Not thread-safe (one cursor = one response stream).
class EngineCursor {
 public:
  ~EngineCursor();
  EngineCursor(const EngineCursor&) = delete;
  EngineCursor& operator=(const EngineCursor&) = delete;

  /// Appends up to `max_bytes` of framed MRT to `out`. Returns false when
  /// the stream is exhausted and nothing was appended.
  bool next_chunk(std::string& out, std::size_t max_bytes = 64 * 1024);

  std::uint64_t records_streamed() const noexcept { return streamed_; }
  /// Segments this cursor will scan (after pruning) — observability/tests.
  std::size_t planned_segments() const noexcept { return plan_.size(); }

 private:
  friend class QueryEngine;

  struct ScanResult {
    std::string bytes;           // matching records, verbatim
    std::uint64_t records = 0;
    bool vanished = false;       // file missing/undecodable
  };

  EngineCursor(QueryEngine* engine,
               std::shared_ptr<const std::vector<SegmentMeta>> snapshot,
               QueryOptions options);

  /// Keeps up to max_parallel_segments scans in flight on the pool.
  void schedule();
  /// Produces the next segment's result in plan order; false when done.
  bool advance();

  QueryEngine* engine_;
  std::shared_ptr<const std::vector<SegmentMeta>> snapshot_;
  QueryOptions options_;
  std::vector<std::string> pinned_files_;
  std::vector<SegmentMeta> plan_;  // pruned, manifest order
  std::size_t next_to_schedule_ = 0;
  std::deque<std::future<ScanResult>> in_flight_;
  std::size_t next_inline_ = 0;    // serial path progress
  std::string current_;            // front segment's matching bytes
  std::size_t current_offset_ = 0;
  std::uint64_t streamed_ = 0;
};

class QueryEngine {
 public:
  explicit QueryEngine(QueryEngineConfig config);

  /// Loads the manifest snapshot. False when the directory is missing.
  bool open();
  /// Reloads the manifest (the writer sealed or GC'd). Cursors started on
  /// the previous snapshot keep it alive and keep streaming from it.
  bool refresh();

  /// The current manifest snapshot (never nullptr after open()).
  std::shared_ptr<const std::vector<SegmentMeta>> snapshot() const;

  /// The GET /v1/segments payload (bloom bits elided — operator-facing).
  std::string segments_json() const;

  /// Starts a streaming query over the current snapshot. The snapshot's
  /// segments stay pinned (and their files undeleted) until the cursor is
  /// destroyed.
  std::shared_ptr<EngineCursor> query(const QueryOptions& options);

  /// True when `meta` can hold records matching `options` (time range, VP
  /// set, and — new in v2 — the per-prefix bloom filter; an empty v1 bloom
  /// matches everything, the scan-all fallback).
  static bool segment_may_match(const SegmentMeta& meta,
                                const QueryOptions& options);

  const std::string& directory() const noexcept { return config_.directory; }

  std::uint64_t queries() const noexcept { return queries_.load(); }
  std::uint64_t segments_scanned() const noexcept {
    return segments_scanned_.load();
  }
  std::uint64_t segments_pruned() const noexcept {
    return segments_pruned_.load();
  }
  /// Segments whose file vanished between snapshot and scan. With pinning
  /// active this stays 0 — the churn test asserts exactly that.
  std::uint64_t segments_vanished() const noexcept {
    return segments_vanished_.load();
  }

 private:
  friend class EngineCursor;

  EngineCursor::ScanResult scan_segment(const SegmentMeta& meta,
                                        const QueryOptions& options);

  QueryEngineConfig config_;
  mutable std::mutex mutex_;
  std::shared_ptr<const std::vector<SegmentMeta>> snapshot_;

  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> segments_scanned_{0};
  std::atomic<std::uint64_t> segments_pruned_{0};
  std::atomic<std::uint64_t> segments_vanished_{0};
  metrics::Counter& queries_counter_;
  metrics::Counter& scanned_counter_;
  metrics::Counter& pruned_counter_;
  metrics::Counter& vanished_counter_;
  metrics::Counter& records_streamed_counter_;
};

}  // namespace gill::archive
