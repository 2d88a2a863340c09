// Shared helpers for the session-server and socket-transport suites: the
// spike-stream equality predicate behind every determinism assertion, and
// the SessionSpec shorthands both suites build scenarios from.  One
// definition, so the suites can never drift into checking different
// predicates.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/server.hpp"

namespace spinn::test {

using Events = std::vector<neural::SpikeRecorder::Event>;

inline bool same_events(const Events& a, const Events& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time || a[i].key != b[i].key) return false;
  }
  return true;
}

inline void append(Events& dst, const Events& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

inline server::SessionSpec spec_with(const std::string& app,
                                     std::uint64_t seed,
                                     sim::EngineKind engine,
                                     std::uint32_t shards = 0,
                                     std::uint32_t threads = 0) {
  server::SessionSpec spec;
  spec.app = app;
  spec.seed = seed;
  spec.engine = engine;
  spec.shards = shards;
  spec.threads = threads;
  return spec;
}

/// A client-described net whose every biological millisecond costs a few
/// milliseconds of wall time in an optimised build: 1000 Poisson sources at
/// 1 kHz onto 2000 LIF neurons with connection probability 0.1.  It lets a
/// test catch a client call that waits for a slice in flight.  Nothing
/// records, so its drains stay empty.
inline server::SessionSpec heavy_spec(std::uint64_t seed) {
  neural::PopulationDesc source;
  source.name = "source";
  source.model = neural::NeuronModel::PoissonSource;
  source.size = 1000;
  source.rate_hz = 1000.0;
  source.record = false;
  neural::PopulationDesc target;
  target.name = "target";
  target.size = 2000;
  target.record = false;
  neural::ProjectionDesc proj;
  proj.pre = source.name;
  proj.post = target.name;
  proj.connector = neural::Connector::fixed_probability(0.1);
  proj.weight = neural::ValueDist::fixed(0.5);
  proj.delay_ms = neural::ValueDist::uniform(1.0, 8.0);
  neural::NetworkDescription desc;
  desc.populations = {source, target};
  desc.projections = {proj};
  server::SessionSpec spec;
  spec.cores_per_chip = 8;
  spec.neurons_per_core = 256;
  spec.seed = seed;
  spec.net =
      std::make_shared<const neural::NetworkDescription>(std::move(desc));
  return spec;
}

}  // namespace spinn::test
