// Monitor session: the full Figure-1 architecture, end to end.
//
// A web-like parallel program (the kind Object-Level Trace watches) is
// "executed"; its per-process event streams race to the central monitoring
// entity in a randomized arrival interleaving. The monitor linearizes them,
// stores events by (process, event number), maintains self-organizing
// cluster timestamps, and serves the two query types a visualization
// engine issues: partial-order scrolling and precedence tests. The same
// session is run with the pre-computed Fidge/Mattern backend for a storage
// comparison.
//
// Two robustness epilogues follow: the same stream pushed through the
// seeded fault injector (showing the MonitorHealth accounting), and a
// mid-stream checkpoint/restore round trip (showing that a restarted
// monitor answers identical queries).
//
// Run:  ./build/examples/monitor_session [--clients N] [--requests N]
#include <cstdio>
#include <sstream>
#include <vector>

#include "monitor/fault_injector.hpp"
#include "monitor/monitor.hpp"
#include "trace/generators.hpp"
#include "trace/snapshot.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"

int main(int argc, char** argv) {
  using namespace ct;
  const CliArgs args(argc, argv);

  WebServerOptions web;
  web.clients = static_cast<std::size_t>(args.get_int_or("clients", 60));
  web.servers = 8;
  web.backends = 4;
  web.requests = static_cast<std::size_t>(args.get_int_or("requests", 900));
  web.seed = 2024;
  const Trace trace = generate_web_server(web);
  std::printf("parallel program: %s — %zu processes, %zu events\n",
              trace.name().c_str(), trace.process_count(),
              trace.event_count());

  // Split the computation into per-process streams, as the monitoring code
  // in each process would forward them.
  std::vector<std::vector<Event>> streams(trace.process_count());
  for (const EventId id : trace.delivery_order()) {
    streams[id.process].push_back(trace.event(id));
  }

  const auto run_session = [&](MonitorOptions options, const char* label) {
    MonitoringEntity monitor(trace.process_count(), options);
    // Adversarial arrival: random process order, bursty.
    std::vector<std::size_t> cursor(trace.process_count(), 0);
    Prng rng(7);
    std::size_t remaining = trace.event_count();
    std::size_t max_buffered = 0;
    while (remaining > 0) {
      ProcessId p;
      do {
        p = static_cast<ProcessId>(rng.index(trace.process_count()));
      } while (cursor[p] >= streams[p].size());
      const std::size_t burst = 1 + rng.index(8);
      for (std::size_t k = 0; k < burst && cursor[p] < streams[p].size();
           ++k) {
        monitor.ingest(streams[p][cursor[p]++]);
        --remaining;
      }
      max_buffered = std::max(max_buffered, monitor.pending());
    }
    std::printf("\n[%s]\n", label);
    std::printf("  events stored: %zu (peak reorder buffer: %zu)\n",
                monitor.stored(), max_buffered);
    std::printf("  timestamp storage: %.1f Kwords\n",
                static_cast<double>(monitor.timestamp_words()) / 1000.0);
    if (const auto stats = monitor.cluster_stats()) {
      std::printf(
          "  clusters: %zu formed via %zu merges; %zu cluster receives\n",
          stats->final_clusters, stats->merges, stats->cluster_receives);
      std::printf("  avg timestamp ratio vs FM width 300: %.3f\n",
                  stats->average_ratio(300));
    }

    // A visualization engine at work: scroll a client's timeline, then test
    // precedence between its events and a backend's.
    std::printf("  scrolling client P0 events 1..5:\n");
    monitor.scroll(0, 1, [&](const Event& e) {
      std::printf("    %s %s\n",
                  (std::ostringstream() << e.id).str().c_str(),
                  to_string(e.kind));
      return e.id.index < 5;
    });
    const ProcessId backend =
        static_cast<ProcessId>(web.clients + web.servers);
    const EventId client_first{0, 1};
    std::size_t ordered = 0, total = 0;
    for (EventIndex i = 1; i <= trace.process_size(backend); ++i) {
      ordered += monitor.precedes(client_first, EventId{backend, i});
      ++total;
    }
    std::printf("  P0.1 happens-before %zu of %zu backend events\n", ordered,
                total);
  };

  MonitorOptions cluster_opts;
  cluster_opts.backend = TimestampBackend::kClusterDynamic;
  cluster_opts.cluster.max_cluster_size = 13;
  cluster_opts.cluster.fm_vector_width = 300;
  cluster_opts.nth_threshold = 10.0;
  run_session(cluster_opts, "cluster-timestamp backend (merge-on-Nth, CR>10)");

  MonitorOptions fm_opts;
  fm_opts.backend = TimestampBackend::kPrecomputedFm;
  fm_opts.cluster.fm_vector_width = 300;
  run_session(fm_opts, "pre-computed Fidge/Mattern backend");

  // ---- robustness epilogue 1: a lossy network between program and monitor.
  // The same arrival stream passes through the seeded fault injector; the
  // delivery manager quarantines what it cannot order, evicts what it cannot
  // hold, and the health counters account for every record.
  {
    std::vector<Event> arrival;
    std::vector<std::size_t> cursor(trace.process_count(), 0);
    Prng rng(7);
    std::size_t remaining = trace.event_count();
    while (remaining > 0) {
      ProcessId p;
      do {
        p = static_cast<ProcessId>(rng.index(trace.process_count()));
      } while (cursor[p] >= streams[p].size());
      const std::size_t burst = 1 + rng.index(8);
      for (std::size_t k = 0; k < burst && cursor[p] < streams[p].size();
           ++k) {
        arrival.push_back(streams[p][cursor[p]++]);
        --remaining;
      }
    }

    MonitorOptions lossy_opts = cluster_opts;
    lossy_opts.delivery.max_buffered = 4096;
    lossy_opts.delivery.orphan_timeout = 20000;
    MonitoringEntity monitor(trace.process_count(), lossy_opts);

    FaultPlan plan;
    plan.seed = 99;
    plan.drop_rate = 0.02;
    plan.dup_rate = 0.01;
    plan.reorder_rate = 0.02;
    FaultInjector injector(plan, [&](const Event& e) { monitor.ingest(e); });
    for (const Event& e : arrival) injector.push(e);
    injector.flush();

    const FaultStats& faults = injector.stats();
    const MonitorHealth health = monitor.health();
    std::printf("\n[fault-injected session: 2%% drop, 1%% dup, 2%% reorder]\n");
    std::printf("  injector: %llu seen, %llu forwarded (%llu dropped, "
                "%llu duplicated, %llu reordered)\n",
                static_cast<unsigned long long>(faults.seen),
                static_cast<unsigned long long>(faults.forwarded),
                static_cast<unsigned long long>(faults.dropped),
                static_cast<unsigned long long>(faults.duplicated),
                static_cast<unsigned long long>(faults.reordered));
    std::printf("  health: ingested=%llu delivered=%llu duplicates=%llu "
                "quarantined=%llu evicted=%llu pending=%llu\n",
                static_cast<unsigned long long>(health.ingested),
                static_cast<unsigned long long>(health.delivered),
                static_cast<unsigned long long>(health.duplicates),
                static_cast<unsigned long long>(health.quarantined),
                static_cast<unsigned long long>(health.evicted),
                static_cast<unsigned long long>(health.pending));
    std::printf("  accounting invariant: %s\n",
                health.accounted() ? "holds" : "VIOLATED");
    std::printf("  delivered %zu of %zu events despite the loss cascade\n",
                monitor.stored(), trace.event_count());
  }

  // ---- robustness epilogue 2: checkpoint mid-stream, restart, catch up.
  {
    MonitoringEntity monitor(trace.process_count(), cluster_opts);
    std::vector<Event> arrival;
    std::vector<std::size_t> cursor(trace.process_count(), 0);
    Prng rng(7);
    std::size_t remaining = trace.event_count();
    while (remaining > 0) {
      ProcessId p;
      do {
        p = static_cast<ProcessId>(rng.index(trace.process_count()));
      } while (cursor[p] >= streams[p].size());
      arrival.push_back(streams[p][cursor[p]++]);
      --remaining;
    }
    const std::size_t cut = arrival.size() / 2;
    for (std::size_t i = 0; i < cut; ++i) monitor.ingest(arrival[i]);

    std::stringstream checkpoint;
    save_snapshot(checkpoint, monitor);
    std::printf("\n[checkpoint/restore at event %zu of %zu]\n", cut,
                arrival.size());
    std::printf("  snapshot: %zu bytes (CTS1), %zu delivered events\n",
                checkpoint.str().size(), monitor.stored());

    const auto restored = load_snapshot(checkpoint);
    // The restarted monitor replays the stream from far enough back to
    // cover everything that was still buffered at the checkpoint (here:
    // from the start). The overlap is harmless — anything the snapshot
    // already delivered drops as a duplicate.
    for (std::size_t i = 0; i < arrival.size(); ++i) {
      restored->ingest(arrival[i]);
      if (i >= cut) monitor.ingest(arrival[i]);
    }
    const bool same_words =
        restored->timestamp_words() == monitor.timestamp_words();
    const bool same_digest =
        restored->state_digest() == monitor.state_digest();
    std::printf("  after catch-up: original stored %zu, restored stored %zu "
                "(%llu duplicate re-feeds dropped)\n",
                monitor.stored(), restored->stored(),
                static_cast<unsigned long long>(
                    restored->health().duplicates));
    std::printf("  timestamp words equal: %s; state digest equal: %s\n",
                same_words ? "yes" : "NO", same_digest ? "yes" : "NO");
  }

  return 0;
}
