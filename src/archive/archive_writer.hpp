// The archive store's write path (DESIGN.md §10): a SegmentWriter appends
// framed MRT records to rotated on-disk segments. Records accumulate in an
// in-memory buffer on the caller's thread (the collector's ingest loop);
// disk work — appending buffered bytes to the active `current.part`,
// fsync, sealing a segment on the rotation boundary, rewriting
// `index.json` — runs as jobs
// on a parallel::ThreadPool so the loop never blocks on storage
// (mirroring the async filter-refresh pattern of DESIGN.md §9). Jobs for
// one writer are strictly serialized (a serial executor over the pool), so
// segment bytes land in append order no matter how many pool workers
// exist. Without a pool every job runs inline: deterministic for tests.
//
// Rotation happens on wall-clock boundaries: a segment covers
// [k*rotate_secs, (k+1)*rotate_secs) — the 15-minute windows of
// RIS/RouteViews-style archives by default. RIB snapshots (TABLE_DUMP_V2
// records, fed by the daemons' periodic rib dumps) interleave with the
// updates, so any window is reconstructible from the archive alone.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "archive/retention.hpp"
#include "archive/segment.hpp"
#include "metrics/metrics.hpp"
#include "mrt/mrt.hpp"
#include "parallel/thread_pool.hpp"

namespace gill::archive {

struct SegmentWriterConfig {
  std::string directory;
  /// Wall-clock rotation boundary, seconds (15 min, the RIS/RV window).
  Timestamp rotate_secs = 900;
  /// Buffered bytes that trigger an asynchronous append to the active
  /// segment file (batches small records into few write syscalls).
  std::size_t flush_bytes = 64 * 1024;
  /// zstd-compress segment payloads at seal time (--archive-compress).
  /// The active `current.part` stays raw either way, so recovery is
  /// unchanged; a build without zstd degrades to raw sealing.
  bool compress = false;
  /// I/O executor; nullptr runs every job inline on the caller's thread.
  par::ThreadPool* pool = nullptr;
  /// Registry hosting the gill_archive_* instruments; nullptr uses
  /// metrics::default_registry().
  metrics::Registry* registry = nullptr;
};

class SegmentWriter : public mrt::Sink {
 public:
  explicit SegmentWriter(SegmentWriterConfig config);
  ~SegmentWriter() override;
  SegmentWriter(const SegmentWriter&) = delete;
  SegmentWriter& operator=(const SegmentWriter&) = delete;

  /// Creates the store directory, seals any crash artifact from a previous
  /// process (recovery scan + truncate, see segment.hpp) and loads the
  /// manifest. Must be called (and return true) before any append.
  bool open();

  // --- mrt::Sink ------------------------------------------------------------
  void store(const bgp::Update& update) override;
  void store_rib_entry(const bgp::Update& entry) override;

  /// Drives rotation: seals the active segment once `now` crosses its
  /// window boundary. Call periodically, on the thread that appends.
  void tick(Timestamp now) override;

  /// Schedules the buffered bytes for an append+fsync to the active file.
  void flush();

  /// Seals the active segment regardless of the boundary (shutdown).
  void rotate_now();

  /// Blocks until every scheduled I/O job ran (tests, shutdown).
  void wait_idle();

  /// rotate_now() + wait_idle(): after close() the store on disk is
  /// sealed, indexed and fsynced. Called by the destructor.
  void close();

  /// Runs one retention/GC pass as a serialized writer job: deletes aged
  /// and over-budget sealed windows (oldest first), skipping any segment
  /// pinned by a live cursor, with the crash-safe manifest-first ordering
  /// of retention.hpp. `on_deleted` (may be empty) is invoked once per
  /// deleted file name — the daemon uses it to invalidate the segment
  /// cache. No-op when the policy is disabled.
  void run_retention(const RetentionPolicy& policy, const SegmentPins* pins,
                     Timestamp now,
                     std::function<void(const std::string&)> on_deleted = {});

  /// Sealed segments, oldest first (a snapshot; safe from any thread).
  std::vector<SegmentMeta> manifest() const;

  /// Bumped on every manifest change (seal, GC). The daemon refreshes its
  /// shared QueryEngine only when this moves — satellite (a)'s fix for the
  /// reload-the-manifest-per-request pattern.
  std::uint64_t manifest_generation() const;

  std::uint64_t segments_sealed() const;
  std::uint64_t records_appended() const noexcept { return records_appended_; }
  /// True once an I/O failure (or the torn-write fault) killed the writer.
  /// A full disk (ENOSPC) does NOT kill the writer: the chunk is dropped,
  /// counted and logged, and appends resume if space comes back.
  bool failed() const;

  /// Appends dropped because the disk was full (see failed()).
  std::uint64_t enospc_events() const;

  /// Test/fault hook — simulates a crash mid-write: the next scheduled
  /// append writes only the first `bytes` bytes of its chunk to the active
  /// file, skips the fsync, and permanently disables the writer (every
  /// later job is a no-op), exactly as if the process died inside write().
  void fault_torn_write(std::size_t bytes);

  /// Test/fault hook — the next scheduled append fails with ENOSPC: its
  /// chunk is dropped and counted but the writer stays alive (degradation,
  /// not failure — collection continues when the operator frees space).
  void fault_enospc();

 private:
  struct Instruments {
    explicit Instruments(metrics::Registry& registry);
    metrics::Counter& segments_written;
    metrics::Counter& bytes_written;
    metrics::Counter& records_appended;
    metrics::Counter& recovered_segments;
    metrics::Counter& truncated_bytes;
    metrics::Counter& enospc_events;
    metrics::Counter& enospc_dropped_bytes;
    metrics::Counter& compressed_segments;
    metrics::Counter& compression_saved_bytes;
    metrics::Counter& gc_deleted_segments;
    metrics::Counter& gc_deleted_bytes;
    metrics::Counter& gc_skipped_pinned;
    metrics::Histogram& rotate_us;
    metrics::Histogram& fsync_us;
  };

  void append_record(const bgp::Update& update, bool rib_entry);
  /// Schedules `job` on the serial executor (inline without a pool).
  void post(std::function<void()> job);
  void run_jobs();
  /// Job bodies (serial-executor thread).
  void do_append(std::vector<std::uint8_t> bytes);
  void do_seal(std::vector<std::uint8_t> tail, SegmentMeta meta);

  std::string active_path() const;

  SegmentWriterConfig config_;
  Instruments instruments_;

  // Loop-thread state (no lock needed: append/tick/flush are loop-only).
  mrt::Writer buffer_;           // records not yet scheduled for disk
  std::size_t buffer_offset_ = 0;  // bytes of buffer_ already scheduled
  SegmentMeta active_;           // statistics of the active segment
  Timestamp window_start_ = 0;   // active window [start, start+rotate)
  bool window_open_ = false;
  std::uint64_t records_appended_ = 0;
  std::uint64_t next_seq_ = 1;

  // Serial executor over the pool. `mutex_` guards everything below.
  mutable std::mutex mutex_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> jobs_;
  bool job_running_ = false;
  bool dead_ = false;             // torn-write fault tripped or I/O failure
  std::size_t torn_write_bytes_ = SIZE_MAX;  // SIZE_MAX = fault unarmed
  bool fault_armed_ = false;
  bool enospc_fault_armed_ = false;
  std::uint64_t enospc_events_ = 0;
  int active_fd_ = -1;            // open fd of current.part (job thread)
  std::vector<SegmentMeta> sealed_;  // manifest mirror
  std::uint64_t sealed_count_ = 0;
  std::uint64_t manifest_generation_ = 0;
};

}  // namespace gill::archive
