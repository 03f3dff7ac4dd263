#include "archive/query_engine.hpp"

#include <filesystem>
#include <utility>

namespace gill::archive {

namespace {

metrics::Registry& resolve(metrics::Registry* registry) {
  return registry != nullptr ? *registry : metrics::default_registry();
}

// The per-record filter: what a segment that survived pruning emits.
bool record_matches(const mrt::Reader::Record& record,
                    const QueryOptions& options) {
  const bgp::Update& update = record.update;
  if (update.time < options.start || update.time >= options.end) return false;
  if (options.vp.has_value() && update.vp != *options.vp) return false;
  if (options.prefix.has_value() && !options.prefix->covers(update.prefix)) {
    return false;
  }
  return true;
}

// True when `options` cannot reject any record of `meta`'s segment: the
// window covers the segment's full time range and there is no VP or prefix
// filter. A sealed payload is exactly the concatenation of its framed
// records (sealing writes nothing else; torn-tail recovery truncates to
// the last whole record), so the scan can then skip the per-record parse
// and emit the payload verbatim — the hot path of a full-archive export.
bool matches_everything(const SegmentMeta& meta, const QueryOptions& options) {
  return options.start <= meta.min_time && options.end > meta.max_time &&
         !options.vp.has_value() && !options.prefix.has_value();
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryEngine
// ---------------------------------------------------------------------------

QueryEngine::QueryEngine(QueryEngineConfig config)
    : config_(std::move(config)),
      queries_counter_(resolve(config_.registry)
                           .counter("gill_archive_engine_queries_total",
                                    "Queries started on the archive query "
                                    "engine")),
      scanned_counter_(resolve(config_.registry)
                           .counter("gill_archive_engine_segments_scanned_"
                                    "total",
                                    "Segments scanned (survived pruning)")),
      pruned_counter_(resolve(config_.registry)
                          .counter("gill_archive_engine_segments_pruned_"
                                   "total",
                                   "Segments skipped by time/VP/bloom "
                                   "pruning")),
      vanished_counter_(resolve(config_.registry)
                            .counter("gill_archive_engine_segments_vanished_"
                                     "total",
                                     "Planned segments whose file vanished "
                                     "before the scan (0 with pinning)")),
      records_streamed_counter_(
          resolve(config_.registry)
              .counter("gill_archive_engine_records_streamed_total",
                       "Records matched and streamed by the engine")) {}

bool QueryEngine::open() {
  std::error_code ec;
  if (!std::filesystem::is_directory(config_.directory, ec)) return false;
  return refresh();
}

bool QueryEngine::refresh() {
  auto manifest = std::make_shared<const std::vector<SegmentMeta>>(
      load_manifest(config_.directory));
  std::lock_guard lock(mutex_);
  snapshot_ = std::move(manifest);
  return true;
}

std::shared_ptr<const std::vector<SegmentMeta>> QueryEngine::snapshot()
    const {
  std::lock_guard lock(mutex_);
  return snapshot_;
}

std::string QueryEngine::segments_json() const {
  const auto snap = snapshot();
  static const std::vector<SegmentMeta> kEmpty;
  return manifest_to_json(snap ? *snap : kEmpty, /*include_bloom=*/false);
}

bool QueryEngine::segment_may_match(const SegmentMeta& meta,
                                    const QueryOptions& options) {
  if (meta.max_time < options.start || meta.min_time >= options.end) {
    return false;
  }
  if (options.vp.has_value()) {
    const auto it =
        std::lower_bound(meta.vps.begin(), meta.vps.end(), *options.vp);
    if (it == meta.vps.end() || *it != *options.vp) return false;
  }
  if (options.prefix.has_value() && !meta.bloom.may_cover(*options.prefix)) {
    return false;
  }
  return true;
}

std::shared_ptr<EngineCursor> QueryEngine::query(const QueryOptions& options) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  queries_counter_.inc();
  auto snap = snapshot();
  if (snap == nullptr) {
    snap = std::make_shared<const std::vector<SegmentMeta>>();
  }
  return std::shared_ptr<EngineCursor>(
      new EngineCursor(this, std::move(snap), options));
}

EngineCursor::ScanResult QueryEngine::scan_segment(
    const SegmentMeta& meta, const QueryOptions& options) {
  EngineCursor::ScanResult result;
  const SegmentCache::Payload payload =
      config_.cache != nullptr
          ? config_.cache->get(config_.directory, meta)
          : SegmentCache::load_segment(config_.directory, meta);
  if (payload == nullptr) {
    result.vanished = true;
    segments_vanished_.fetch_add(1, std::memory_order_relaxed);
    vanished_counter_.inc();
    return result;
  }
  segments_scanned_.fetch_add(1, std::memory_order_relaxed);
  scanned_counter_.inc();
  if (matches_everything(meta, options)) {
    result.bytes.assign(reinterpret_cast<const char*>(payload->data()),
                        payload->size());
    result.records = meta.updates + meta.rib_entries;
    records_streamed_counter_.inc(result.records);
    return result;
  }
  // Matching records are copied verbatim from the payload: the stream is
  // byte-identical to what the writer stored, record by record.
  mrt::Reader reader{std::span<const std::uint8_t>(*payload)};
  std::size_t consumed = 0;
  while (auto record = reader.next()) {
    const std::size_t record_end = reader.offset();
    if (record_matches(*record, options)) {
      result.bytes.append(
          reinterpret_cast<const char*>(payload->data()) + consumed,
          record_end - consumed);
      ++result.records;
    }
    consumed = record_end;
  }
  records_streamed_counter_.inc(result.records);
  return result;
}

// ---------------------------------------------------------------------------
// EngineCursor
// ---------------------------------------------------------------------------

EngineCursor::EngineCursor(
    QueryEngine* engine,
    std::shared_ptr<const std::vector<SegmentMeta>> snapshot,
    QueryOptions options)
    : engine_(engine),
      snapshot_(std::move(snapshot)),
      options_(std::move(options)) {
  for (const SegmentMeta& meta : *snapshot_) {
    if (QueryEngine::segment_may_match(meta, options_)) {
      plan_.push_back(meta);
    } else {
      engine_->segments_pruned_.fetch_add(1, std::memory_order_relaxed);
      engine_->pruned_counter_.inc();
    }
  }
  // Pin the whole snapshot AND validate the plan's files still exist in
  // ONE pins critical section. GC's unlink runs its own pin re-check under
  // the same lock, so either a planned file was already unlinked before we
  // got here (we drop it silently — it was legally collected) or our pin
  // lands first and GC spares it. After this block a planned segment can
  // never vanish, which is exactly what segments_vanished() == 0 asserts.
  if (engine_->config_.pins != nullptr) {
    pinned_files_.reserve(snapshot_->size());
    for (const SegmentMeta& meta : *snapshot_) {
      pinned_files_.push_back(meta.file);
    }
    const std::filesystem::path directory(engine_->config_.directory);
    engine_->config_.pins->locked([&] {
      engine_->config_.pins->pin_locked(pinned_files_);
      std::erase_if(plan_, [&](const SegmentMeta& meta) {
        std::error_code ec;
        return !std::filesystem::exists(directory / meta.file, ec);
      });
    });
  }
  schedule();
}

EngineCursor::~EngineCursor() {
  // Unpinning may not happen before every in-flight scan finished reading
  // its file — GC would otherwise be free to unlink a file a pool worker
  // is mid-read on (the payload shared_ptr only protects memory already
  // loaded, not the read itself).
  for (auto& future : in_flight_) {
    if (future.valid()) future.wait();
  }
  if (engine_->config_.pins != nullptr && !pinned_files_.empty()) {
    engine_->config_.pins->unpin(pinned_files_);
  }
}

void EngineCursor::schedule() {
  if (engine_->config_.pool == nullptr) return;  // serial path
  while (next_to_schedule_ < plan_.size() &&
         in_flight_.size() < engine_->config_.max_parallel_segments) {
    // Self-contained task: engine pointer (outlives the cursor's futures —
    // the destructor drains them), a meta copy and the options by value.
    QueryEngine* engine = engine_;
    SegmentMeta meta = plan_[next_to_schedule_++];
    QueryOptions options = options_;
    in_flight_.push_back(engine_->config_.pool->submit(
        [engine, meta = std::move(meta), options = std::move(options)] {
          return engine->scan_segment(meta, options);
        }));
  }
}

bool EngineCursor::advance() {
  for (;;) {
    ScanResult result;
    if (engine_->config_.pool == nullptr) {
      if (next_inline_ >= plan_.size()) return false;
      result = engine_->scan_segment(plan_[next_inline_++], options_);
    } else {
      if (in_flight_.empty()) return false;
      result = in_flight_.front().get();
      in_flight_.pop_front();
      schedule();  // keep the prefetch window full
    }
    if (result.vanished || result.bytes.empty()) continue;
    current_ = std::move(result.bytes);
    current_offset_ = 0;
    streamed_ += result.records;
    return true;
  }
}

bool EngineCursor::next_chunk(std::string& out, std::size_t max_bytes) {
  const std::size_t start_size = out.size();
  while (out.size() - start_size < max_bytes) {
    if (current_offset_ >= current_.size()) {
      if (!advance()) break;
    }
    const std::size_t budget = max_bytes - (out.size() - start_size);
    const std::size_t take =
        std::min(budget, current_.size() - current_offset_);
    out.append(current_, current_offset_, take);
    current_offset_ += take;
  }
  return out.size() != start_size;
}

}  // namespace gill::archive
