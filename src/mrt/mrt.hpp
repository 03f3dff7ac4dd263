// MRT-style binary archive format (§8-§9: "GILL stores the collected BGP
// updates in a public database using the MRT format").
//
// Records follow the RFC 6396 framing: a common header (timestamp, type,
// subtype, length) followed by a type-specific body, all big-endian. Two
// record kinds are used:
//   * BGP4MP/MESSAGE_AS4-like update records (announcement or withdrawal),
//   * TABLE_DUMP_V2-like RIB entry records (one prefix, one VP).
// The body layout is a faithful simplification: peer AS and VP id, prefix
// as (afi, length, packed bytes), AS path as a count-prefixed AS4 list and
// communities as a count-prefixed 32-bit list.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/update.hpp"

namespace gill::mrt {

using bgp::Update;
using bgp::UpdateStream;

/// RFC 6396 record types (values as registered).
enum class RecordType : std::uint16_t {
  kTableDumpV2 = 13,
  kBgp4mp = 16,
};

enum class Bgp4mpSubtype : std::uint16_t {
  kMessageAs4 = 4,
};

enum class TableDumpSubtype : std::uint16_t {
  kRibGeneric = 6,
};

/// Abstract destination for archived records: the daemon's store stage
/// writes through this, so an in-memory MrtStore and the on-disk archive
/// (archive::SegmentWriter) are interchangeable — or stacked.
class Sink {
 public:
  virtual ~Sink() = default;
  /// Records one BGP4MP update.
  virtual void store(const Update& update) = 0;
  /// Records one TABLE_DUMP_V2 RIB entry.
  virtual void store_rib_entry(const Update& entry) = 0;
  /// Periodic maintenance at time `now`, on the thread that writes the
  /// sink (the collector's ingest tick); a no-op unless overridden.
  virtual void tick(bgp::Timestamp /*now*/) {}
};

/// Serializes updates and RIB entries into one growing byte buffer.
class Writer {
 public:
  /// Appends one BGP4MP update record.
  void write_update(const Update& update);

  /// Appends one TABLE_DUMP_V2 RIB-entry record.
  void write_rib_entry(const Update& entry);

  const std::vector<std::uint8_t>& buffer() const noexcept { return buffer_; }
  std::size_t record_count() const noexcept { return records_; }

  /// Writes the buffer to a file; returns false on I/O failure.
  bool save(const std::string& path) const;

 private:
  void write_record(RecordType type, std::uint16_t subtype,
                    const Update& update);

  std::vector<std::uint8_t> buffer_;
  std::size_t records_ = 0;
};

/// Iterates the records of a byte buffer. Any malformed record stops the
/// stream (next() returns nullopt and ok() turns false).
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  /// One decoded record.
  struct Record {
    RecordType type{};
    std::uint16_t subtype = 0;
    Update update;  // update or RIB entry depending on type
  };

  std::optional<Record> next();
  bool ok() const noexcept { return ok_; }
  bool done() const noexcept { return offset_ >= data_.size(); }
  /// Bytes consumed so far — always a record boundary, so after a failed
  /// next() this is where a torn tail starts (the archive recovery scan
  /// truncates here).
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
  bool ok_ = true;
};

/// Convenience: full streams to/from disk.
bool write_stream(const UpdateStream& stream, const std::string& path);
std::optional<UpdateStream> read_stream(const std::string& path);

/// In-memory round trip used by the daemon's store stage.
std::vector<std::uint8_t> encode_stream(const UpdateStream& stream);
std::optional<UpdateStream> decode_stream(std::span<const std::uint8_t> data);

}  // namespace gill::mrt
