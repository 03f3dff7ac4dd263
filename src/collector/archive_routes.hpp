// The collector's data-retrieval routes (DESIGN.md §10, §15): GET /v1/data
// streams one query's matching records as chunked framed MRT, and GET
// /v1/segments lists the manifest, both served by one shared
// archive::QueryEngine.
#pragma once

#include "archive/query_engine.hpp"
#include "net/http_endpoint.hpp"

namespace gill::collect {

/// Registers GET /v1/data?start=&end=&vp=&prefix= and GET /v1/segments on
/// `http`. `engine` must outlive the endpoint. Parameters parse strictly:
/// a malformed value answers 400 with a `bad_param` envelope naming it.
/// A /v1/data body is pulled one chunk at a time as the socket drains, so
/// memory stays bounded per client. Returns false when either path is
/// already routed.
bool route_archive(net::HttpEndpoint& http, archive::QueryEngine& engine);

}  // namespace gill::collect
