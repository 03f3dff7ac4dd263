// The archive query filter. The segment store has one reader,
// archive::QueryEngine (query_engine.hpp); this header keeps only the
// options type it takes, under its historical name, because external
// programs (the perfbench harness) include it by this path.
#pragma once

#include <limits>
#include <optional>

#include "archive/segment.hpp"
#include "netbase/prefix.hpp"

namespace gill::archive {

/// Filter for QueryEngine::query. Time bounds are half-open [start, end);
/// vp/prefix restrict when set. A prefix filter matches records whose
/// prefix equals the query prefix or is more specific (contained in it) —
/// the per-origin slice an operator asks for.
struct QueryOptions {
  Timestamp start = 0;
  Timestamp end = std::numeric_limits<Timestamp>::max();
  std::optional<VpId> vp;
  std::optional<net::Prefix> prefix;
};

}  // namespace gill::archive
