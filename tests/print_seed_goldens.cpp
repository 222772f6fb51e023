// Regenerates the golden digest tables of tests/seed_stability_test.cpp.
// Run after an INTENTIONAL generator change and paste the two blocks into
// the test (suite block, then direct block), in the same commit as the
// change. Any unexplained diff here is a seed-stability break.
#include <cstdio>

#include "trace/digest.hpp"
#include "trace/generators.hpp"
#include "trace/suite.hpp"

namespace ct {
namespace {

void print_direct(const char* name, const Trace& t) {
  std::printf("      {\"%s\", 0x%016llxull},\n", name,
              static_cast<unsigned long long>(trace_digest(t)));
}

int run() {
  std::printf("// ---- suite goldens (kSuiteGoldens) ----\n");
  for (const SuiteEntry& entry : standard_suite()) {
    std::printf("    {\"%s\", 0x%016llxull},\n", entry.id.c_str(),
                static_cast<unsigned long long>(trace_digest(entry.make())));
  }

  std::printf("// ---- direct goldens ----\n");
  print_direct("ring",
               generate_ring({.processes = 10, .iterations = 6, .seed = 3}));
  print_direct("halo1d", generate_halo1d({.processes = 10, .iterations = 5,
                                          .allreduce_every = 2, .seed = 3}));
  print_direct("halo2d", generate_halo2d({.width = 4, .height = 3,
                                          .iterations = 4, .seed = 3}));
  print_direct("scatter_gather", generate_scatter_gather({.processes = 9,
                                                          .rounds = 5,
                                                          .seed = 3}));
  print_direct("reduction_tree", generate_reduction_tree({.processes = 8,
                                                          .rounds = 5,
                                                          .seed = 3}));
  print_direct("pipeline",
               generate_pipeline({.stages = 6, .items = 10, .seed = 3}));
  print_direct("wavefront", generate_wavefront({.width = 4, .height = 4,
                                                .sweeps = 3, .seed = 3}));
  print_direct("master_worker",
               generate_master_worker({.processes = 12, .tasks = 40,
                                       .pods = 2, .seed = 3}));
  print_direct("butterfly", generate_butterfly({.dimensions = 3, .sweeps = 3,
                                                .seed = 3}));
  print_direct("gossip",
               generate_gossip({.processes = 10, .rounds = 6, .seed = 3}));
  print_direct("token_ring",
               generate_token_ring({.processes = 8, .laps = 4, .seed = 3}));
  print_direct("web_server",
               generate_web_server({.clients = 12, .servers = 3,
                                    .backends = 2, .requests = 60,
                                    .seed = 3}));
  print_direct("tiered_service",
               generate_tiered_service({.clients = 8, .frontends = 3,
                                        .app_servers = 3, .databases = 2,
                                        .requests = 50, .seed = 3}));
  print_direct("pubsub",
               generate_pubsub({.publishers = 4, .brokers = 2,
                                .subscribers = 8, .topics = 4,
                                .subscribers_per_topic = 3, .messages = 50,
                                .seed = 3}));
  print_direct("rpc_business",
               generate_rpc_business({.groups = 3, .clients_per_group = 2,
                                      .servers_per_group = 2, .calls = 60,
                                      .seed = 3}));
  print_direct("rpc_chain",
               generate_rpc_chain({.services = 8, .chain_length = 4,
                                   .requests = 30, .seed = 3}));
  print_direct("uniform_random",
               generate_uniform_random({.processes = 12, .messages = 80,
                                        .seed = 3}));
  print_direct("phased_locality",
               generate_phased_locality({.processes = 12, .group_size = 4,
                                         .phases = 2,
                                         .messages_per_phase = 40,
                                         .seed = 3}));
  print_direct("locality_random",
               generate_locality_random({.processes = 12, .group_size = 4,
                                         .messages = 80, .seed = 3}));
  print_direct("adversarial",
               generate_adversarial({.processes = 12, .groups = 3,
                                     .messages = 90, .seed = 3}));
  return 0;
}

}  // namespace
}  // namespace ct

int main() { return ct::run(); }
