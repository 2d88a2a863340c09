// §5.4 end to end: a retina with Mexican-hat receptive fields encodes an
// image as a rank-order spike volley; the volley is replayed through the
// *simulated machine* as AER multicast packets; the spike train recorded on
// the far side is decoded back into an image.  Then ganglion cells are
// killed and the whole loop repeats, demonstrating the graceful degradation
// the paper attributes to overlapping receptive fields and lateral
// inhibition.
//
//   $ ./retina_rank_order
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/spinnaker.hpp"

namespace {

using namespace spinn;

/// Replay a retina volley through the machine and return the volley as
/// reconstructed from the *recorded* spikes (arrival order on the fabric).
std::vector<neural::RetinaSpike> run_on_machine(
    const neural::Retina& retina,
    const std::vector<neural::RetinaSpike>& volley) {
  SystemConfig cfg;
  cfg.machine.width = 3;
  cfg.machine.height = 3;
  cfg.machine.chip.num_cores = 10;
  cfg.mapper.neurons_per_core = 128;
  cfg.mapper.scatter = true;  // ganglia scattered over the machine (§3.2)
  System sys(cfg);

  // One spike-source neuron per ganglion; latency (ms) -> spike tick.
  std::vector<std::vector<std::uint32_t>> schedule(retina.num_ganglia());
  for (const neural::RetinaSpike& s : volley) {
    const auto tick = static_cast<std::uint32_t>(1.0 + s.latency_ms);
    schedule[s.ganglion].push_back(tick);
  }
  net::NetBuilder b;
  b.spike_source("retina", schedule);
  // A collector population so the volley actually crosses the fabric.
  b.lif("collector", 64);
  b.project("retina", "collector", neural::Connector::fixed_probability(0.05),
            neural::ValueDist::fixed(0.5), neural::ValueDist::fixed(1.0));
  constexpr neural::PopulationId pop = 0;
  neural::Network net;
  std::string error;
  if (!neural::build(b.description(), &net, &error)) {
    std::printf("invalid network: %s\n", error.c_str());
    return {};
  }

  const auto load = sys.load(net);
  if (!load.ok) return {};
  const std::uint32_t max_tick = 200;
  sys.run(static_cast<TimeNs>(max_tick) * kMillisecond);

  // Order of arrival at the recorder is the machine's view of the code.
  const auto& slices = load.placement.slices;
  std::vector<neural::RetinaSpike> received;
  for (const auto& e : sys.spikes().events()) {
    // Map the AER key back to a ganglion index.
    for (const std::size_t si : load.placement.by_population[pop]) {
      const map::Slice& s = slices[si];
      if (e.key >= s.key_base && e.key < s.key_base + s.num_neurons) {
        const std::uint32_t ganglion =
            s.first_neuron + (e.key - s.key_base);
        // Reuse the encoder's response value for decoding weight.
        for (const neural::RetinaSpike& orig : volley) {
          if (orig.ganglion == ganglion) {
            received.push_back(neural::RetinaSpike{
                ganglion, static_cast<double>(e.time) / kMillisecond,
                orig.response});
            break;
          }
        }
      }
    }
  }
  std::sort(received.begin(), received.end(),
            [](const neural::RetinaSpike& a, const neural::RetinaSpike& b) {
              return a.latency_ms < b.latency_ms;
            });
  return received;
}

}  // namespace

int main() {
  using namespace spinn;
  const int image_size = 32;
  neural::RetinaConfig rcfg;
  const neural::Image stimulus =
      neural::make_gaussian_blob(image_size, 16.0, 14.0, 3.5);

  std::printf("retina rank-order demo (§5.4): %dx%d stimulus\n\n",
              image_size, image_size);
  std::printf("%-12s %14s %16s %18s\n", "lesion", "volley->fabric",
              "spikes received", "reconstruction r");

  Rng rng(7);
  for (const double loss : {0.0, 0.2, 0.4}) {
    neural::Retina retina(image_size, rcfg);
    if (loss > 0) retina.kill_fraction(loss, rng);
    const auto volley = retina.encode(stimulus);
    const auto received = run_on_machine(retina, volley);
    const neural::Image rec = retina.decode(received, 100000);
    const double corr = neural::image_correlation(stimulus, rec);
    char label[16];
    std::snprintf(label, sizeof label, "%.0f%%", loss * 100.0);
    std::printf("%-12s %14zu %16zu %18.3f\n", label, volley.size(),
                received.size(), corr);
  }

  std::printf("\nThe spike order survives the trip through the multicast "
              "fabric (delivery is microseconds on a\nmillisecond code), "
              "and reconstruction degrades gracefully as ganglia die — "
              "the §5.4 story, run on\nthe machine rather than on paper.\n");
  return 0;
}
