// Network monitoring under a traffic burst — the paper's motivating
// scenario (Sec. 1): "bursts often produce not only more data, but also
// different data than usual ... crisis scenarios (network attacks)".
//
// A packet-header stream joins a table-like stream of watched ports; the
// query counts suspicious packets per port in one-second windows. Midway
// through the run a simulated attack multiplies the packet rate by 50x
// and shifts traffic onto one port. We run the same input through
// drop-only shedding and Data Triage and print, for the attack port, the
// ideal count, the drop-only answer, and the Data Triage composite
// answer per window — showing how triage recovers the burst that
// drop-only mostly discards.
//
// Build & run:  ./build/examples/network_monitor

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "src/metrics/ideal.h"
#include "src/plan/binder.h"
#include "src/server/stream_server.h"
#include "src/sql/parser.h"

namespace {

using datatriage::Catalog;
using datatriage::FieldType;
using datatriage::Rng;
using datatriage::Schema;
using datatriage::Status;
using datatriage::Tuple;
using datatriage::Value;
using datatriage::engine::EngineConfig;
using datatriage::engine::StreamEvent;

constexpr int64_t kAttackPort = 80;
constexpr double kAttackStart = 4.0;
constexpr double kAttackEnd = 7.0;

std::vector<StreamEvent> BuildTraffic(uint64_t seed) {
  Rng rng(seed);
  std::vector<StreamEvent> events;
  // Watched-ports stream: a slow feed re-announcing the ports of
  // interest each window (20, 22, 53, 80, 443).
  const int64_t watched[] = {20, 22, 53, 80, 443};
  for (double t = 0.05; t < 10.0; t += 0.2) {
    for (int64_t port : watched) {
      events.push_back(
          {"watched", Tuple({Value::Int64(port)}, t)});
    }
  }
  // Packet stream: ~120 packets/s background uniform over common ports;
  // during the attack, 50x rate concentrated on port 80.
  double t = 0.0;
  while (t < 10.0) {
    const bool attack = t >= kAttackStart && t < kAttackEnd;
    const double rate = attack ? 6000.0 : 120.0;
    t += rng.Exponential(rate);
    int64_t port;
    if (attack && rng.Bernoulli(0.9)) {
      port = kAttackPort;
    } else {
      const int64_t common[] = {20, 22, 25, 53, 80, 110, 143, 443, 8080};
      port = common[rng.UniformInt(0, 8)];
    }
    const int64_t size_bucket = rng.UniformInt(1, 15);
    events.push_back(
        {"packets",
         Tuple({Value::Int64(port), Value::Int64(size_bucket)}, t)});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const StreamEvent& a, const StreamEvent& b) {
                     return a.tuple.timestamp() < b.tuple.timestamp();
                   });
  return events;
}

double CountForPort(const datatriage::exec::Relation& rows, int64_t port) {
  for (const Tuple& row : rows) {
    if (row.value(0).int64() == port) return row.value(1).AsDouble();
  }
  return 0.0;
}

}  // namespace

int main() {
  Catalog catalog;
  if (!catalog
           .RegisterStream({"packets",
                            Schema({{"dst_port", FieldType::kInt64},
                                    {"size_bucket", FieldType::kInt64}})})
           .ok() ||
      !catalog
           .RegisterStream(
               {"watched", Schema({{"port", FieldType::kInt64}})})
           .ok()) {
    std::fprintf(stderr, "catalog setup failed\n");
    return 1;
  }
  const std::string query =
      "SELECT dst_port, COUNT(*) AS hits FROM packets, watched "
      "WHERE packets.dst_port = watched.port GROUP BY dst_port "
      "WINDOW packets['1 second'], watched['1 second']";

  std::vector<StreamEvent> events = BuildTraffic(7);

  auto run = [&](datatriage::triage::SheddingStrategy strategy)
      -> std::vector<datatriage::engine::WindowResult> {
    EngineConfig config;
    config.strategy = strategy;
    config.queue_capacity = 100;
    config.synopsis.grid.cell_width = 1.0;
    datatriage::server::StreamServer server(catalog);
    auto id = server.RegisterQuery(query, config);
    if (!id.ok()) {
      std::fprintf(stderr, "register: %s\n",
                   id.status().ToString().c_str());
      std::exit(1);
    }
    if (Status s = server.PushBatch(events); !s.ok()) {
      std::fprintf(stderr, "push: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    if (Status s = server.Finish(); !s.ok()) {
      std::fprintf(stderr, "finish: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    return server.session(*id).TakeResults();
  };

  auto drop_results =
      run(datatriage::triage::SheddingStrategy::kDropOnly);
  auto triage_results =
      run(datatriage::triage::SheddingStrategy::kDataTriage);

  // Ideal results for reference.
  auto stmt = datatriage::sql::ParseStatement(query);
  if (!stmt.ok()) {
    std::fprintf(stderr, "parse: %s\n", stmt.status().ToString().c_str());
    return 1;
  }
  auto bound = datatriage::plan::BindStatement(*stmt, catalog);
  if (!bound.ok()) {
    std::fprintf(stderr, "bind: %s\n", bound.status().ToString().c_str());
    return 1;
  }
  auto ideal = datatriage::metrics::ComputeIdealResults(*bound, events,
                                                        1.0);
  if (!ideal.ok()) {
    std::fprintf(stderr, "ideal: %s\n",
                 ideal.status().ToString().c_str());
    return 1;
  }

  std::printf("Suspicious-packet counts on port %lld per 1s window\n",
              static_cast<long long>(kAttackPort));
  std::printf("(attack runs from t=%.0fs to t=%.0fs)\n\n", kAttackStart,
              kAttackEnd);
  std::printf("%6s %12s %12s %14s\n", "window", "ideal", "drop_only",
              "data_triage");
  std::map<datatriage::WindowId, double> drop_counts, triage_counts;
  for (const auto& r : drop_results) {
    drop_counts[r.window] = CountForPort(r.merged_rows, kAttackPort);
  }
  for (const auto& r : triage_results) {
    triage_counts[r.window] = CountForPort(r.merged_rows, kAttackPort);
  }
  for (const auto& [window, rows] : *ideal) {
    std::printf("%6lld %12.0f %12.0f %14.0f\n",
                static_cast<long long>(window),
                CountForPort(rows, kAttackPort), drop_counts[window],
                triage_counts[window]);
  }
  std::printf(
      "\nDuring the attack windows, drop-only loses most of the burst "
      "while Data Triage's composite count tracks the ideal.\n");
  return 0;
}
