// ctsnap: inspect and verify CTC1 snapshot images — published generations
// (`ctc-<gen>.col`, src/store/) and checkpoints (`snap-<seq>.cts`,
// DurableLog::checkpoint).
//
// Subcommands:
//   info   FILE          dump the footer manifest (generation, WAL position,
//                        options, column table with per-column bytes/event)
//   verify FILE          recompute every block CRC32C and per-column FNV
//                        digest, then run the structural verifier; exit 1 on
//                        the first mismatch, with its byte offset
//   ls     DIR [--ns P]  list published generations, checkpoints and
//                        leftover tmps of a FileStorage directory
//
// Examples:
//   ./build/examples/ctsnap info  /var/ct/ctc-12.col
//   ./build/examples/ctsnap verify /var/ct/snap-000000004096.cts
//   ./build/examples/ctsnap ls /var/ct --ns tenant-3.
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "durability/format.hpp"
#include "durability/storage.hpp"
#include "store/mapped_view.hpp"
#include "store/snapshot_store.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

using namespace ct;

int usage() {
  std::puts(
      "usage: ctsnap <info|verify|ls> ...\n"
      "  info   FILE      dump the CTC1 footer manifest\n"
      "  verify FILE      recheck block CRCs, digests, and structure\n"
      "  ls     DIR [--ns PREFIX]  list generations and checkpoints in a "
      "storage directory");
  return 2;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CT_CHECK_MSG(in.good(), "cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

const char* backend_name(TimestampBackend b) {
  switch (b) {
    case TimestampBackend::kPrecomputedFm: return "precomputed-fm";
    case TimestampBackend::kClusterDynamic: return "cluster-dynamic";
    default: return "other";
  }
}

int cmd_info(const std::string& path) {
  const std::string bytes = read_file(path);
  const ColumnarManifest m = parse_columnar_manifest(bytes);
  std::printf("file           %s (%zu bytes)\n", path.c_str(), bytes.size());
  std::printf("format         CTC1 v%u, %s\n", unsigned{m.version},
              m.has_arena ? "event + arena columns" : "event columns only");
  std::printf("generation     %" PRIu64 "\n", m.generation);
  std::printf("wal position   %" PRIu64 " delivered records\n",
              m.wal_position);
  std::printf("processes      %" PRIu64 "\n", m.process_count);
  std::printf("events         %" PRIu64 "\n", m.event_count);
  std::printf("run length     %" PRIu64 " records per ev_run_offsets entry\n",
              m.run_records);
  if (m.has_arena) {
    std::printf("arena          %" PRIu64 " pool words, %" PRIu64
                " covered sets\n",
                m.pool_words, m.covered_set_count);
  }
  std::printf("options        backend=%s nth=%g max-cluster=%zu\n",
              backend_name(m.options.backend), m.options.nth_threshold,
              m.options.cluster.max_cluster_size);
  std::printf("state digest   %016" PRIx64 "\n", m.state_digest);
  std::printf("crc blocks     %" PRIu64 " bytes each\n", m.block_bytes);
  std::printf("footer         at byte %" PRIu64 " (%zu bytes)\n",
              m.footer_offset, bytes.size() - m.footer_offset);
  std::printf("\n%-18s %10s %12s %12s  %s\n", "column", "elem", "bytes",
              "blocks", "bytes/event");
  const double events =
      m.event_count == 0 ? 1.0 : static_cast<double>(m.event_count);
  std::uint64_t total = 0;
  for (const ColumnInfo& c : m.columns) {
    total += c.bytes;
    std::printf("%-18s %10" PRIu64 " %12" PRIu64 " %12zu  %10.2f\n",
                to_string(c.id), c.element_count, c.bytes,
                c.block_crcs.size(), static_cast<double>(c.bytes) / events);
  }
  std::printf("%-18s %10s %12" PRIu64 " %12s  %10.2f\n", "total", "", total,
              "", static_cast<double>(total) / events);
  return 0;
}

int cmd_verify(const std::string& path) {
  std::string bytes = read_file(path);
  const ColumnarManifest m = parse_columnar_manifest(bytes);
  verify_columnar_blocks(bytes, m);
  verify_columnar_digests(bytes, m);
  std::size_t blocks = 0;
  for (const ColumnInfo& c : m.columns) blocks += c.block_crcs.size();
  std::printf("checksums      OK: %zu block CRCs, %zu column digests\n",
              blocks, m.columns.size());
  MappedSnapshot snap(ColdBytes::from_string(std::move(bytes)));
  snap.verify_structure();
  std::printf("structure      OK: %" PRIu64 " events over %" PRIu64
              " processes%s\n",
              m.event_count, m.process_count,
              m.has_arena ? ", arena consistent" : "");
  std::printf("image verified\n");
  return 0;
}

/// "N events, wal@P", or why the image does not parse.
std::string describe(const std::string& bytes) {
  try {
    const ColumnarManifest m = parse_columnar_manifest(bytes);
    std::ostringstream os;
    os << m.event_count << " events, wal@" << m.wal_position;
    return os.str();
  } catch (const CheckFailure& e) {
    return std::string("INVALID: ") + e.what();
  }
}

int cmd_ls(const std::string& dir, const std::string& ns) {
  CT_CHECK_MSG(std::filesystem::is_directory(dir),
               dir + " is not a directory");
  FileStorage storage(dir);
  for (const auto& [gen, name] : list_columnar(storage, ns)) {
    const std::string bytes = storage.read(name);
    std::printf("gen %-6" PRIu64 " %-24s %10zu bytes  %s\n", gen,
                name.c_str(), bytes.size(), describe(bytes).c_str());
  }
  for (const auto& [seq, name] : list_checkpoints(storage, ns)) {
    const std::string bytes = storage.read(name);
    std::printf("ckpt       %-24s %10zu bytes  %s\n", name.c_str(),
                bytes.size(), describe(bytes).c_str());
  }
  for (const std::string& tmp : list_columnar_tmps(storage, ns)) {
    std::printf("tmp        %-24s %10zu bytes  half-published, quarantined\n",
                tmp.c_str(), storage.read(tmp).size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ct::CliArgs args(argc, argv);
    if (args.positional().empty()) return usage();
    const std::string& cmd = args.positional()[0];
    if ((cmd == "info" || cmd == "verify") && args.positional().size() == 2) {
      return cmd == "info" ? cmd_info(args.positional()[1])
                           : cmd_verify(args.positional()[1]);
    }
    if (cmd == "ls" && args.positional().size() == 2) {
      return cmd_ls(args.positional()[1], args.get_or("ns", ""));
    }
    return usage();
  } catch (const ct::CheckFailure& e) {
    std::fprintf(stderr, "ctsnap: %s\n", e.what());
    return 1;
  }
}
