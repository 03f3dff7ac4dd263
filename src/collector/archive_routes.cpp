#include "collector/archive_routes.hpp"

#include <cstdint>
#include <string>

namespace gill::collect {

namespace {

net::HttpResponse bad_param(const std::string& name, const std::string& value,
                            const char* want) {
  return net::error_response(400, "bad_param",
                             "bad " + name + " '" + value + "': want " + want);
}

}  // namespace

bool route_archive(net::HttpEndpoint& http, archive::QueryEngine& engine) {
  const auto data_route = [&engine](const net::HttpRequest& request) {
    archive::QueryOptions options;
    std::uint64_t value = 0;
    if (const auto* start = request.get("start")) {
      if (!net::parse_u64(*start, &value)) {
        return bad_param("start", *start, "a decimal timestamp");
      }
      options.start = static_cast<bgp::Timestamp>(value);
    }
    if (const auto* end = request.get("end")) {
      if (!net::parse_u64(*end, &value)) {
        return bad_param("end", *end, "a decimal timestamp");
      }
      options.end = static_cast<bgp::Timestamp>(value);
    }
    if (const auto* vp = request.get("vp")) {
      if (!net::parse_u64(*vp, &value) || value > UINT32_MAX) {
        return bad_param("vp", *vp, "a decimal VP id");
      }
      options.vp = static_cast<bgp::VpId>(value);
    }
    if (const auto* prefix = request.get("prefix")) {
      const auto parsed = net::Prefix::parse(*prefix);
      if (!parsed) {
        return bad_param("prefix", *prefix, "CIDR like 10.0.0.0/8");
      }
      options.prefix = *parsed;
    }
    auto cursor = engine.query(options);
    net::HttpResponse response;
    response.content_type = "application/octet-stream";
    response.producer = [cursor](std::string& out) {
      return cursor->next_chunk(out);
    };
    return response;
  };
  const bool data = http.route("/v1/data", data_route);
  const bool segments =
      http.route("/v1/segments", [&engine](const net::HttpRequest&) {
        net::HttpResponse response;
        response.content_type = "application/json";
        response.body = engine.segments_json();
        return response;
      });
  return data && segments;
}

}  // namespace gill::collect
