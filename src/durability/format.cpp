#include "durability/format.hpp"

#include <bit>
#include <cstring>

#include "core/engine.hpp"
#include "durability/wal.hpp"
#include "util/crc32c.hpp"
#include "util/varint.hpp"

namespace ct {
namespace {

// The arena segments are raw little-endian u32 arrays written/read with
// memcpy; the mapped read path aliases them in place. Both are gated on a
// little-endian host — the one portability concession the zero-copy design
// makes (the varint event records stay portable).
static_assert(std::endian::native == std::endian::little,
              "CTC1 columnar images require a little-endian host");
static_assert(sizeof(EventIndex) == 4 && sizeof(ProcessId) == 4,
              "CTC1 u32 columns assume 32-bit ids");

using wal::put_u32_le;
using wal::put_u64_le;

void put_u32s(std::string& out, const std::uint32_t* v, std::size_t n) {
  if (n == 0) return;  // an empty column may hand over a null `v`
  const std::size_t at = out.size();
  out.resize(at + n * 4);
  std::memcpy(out.data() + at, v, n * 4);
}

std::uint64_t take_u64_le(std::string_view data, std::size_t& pos,
                          const char* what) {
  CT_CHECK_MSG(pos + 8 <= data.size(), "columnar footer truncated in "
                                           << what << " at byte offset "
                                           << pos);
  pos += 8;
  return wal::get_u64_le(data, pos - 8);
}

std::uint32_t take_u32_le(std::string_view data, std::size_t& pos,
                          const char* what) {
  CT_CHECK_MSG(pos + 4 <= data.size(), "columnar footer truncated in "
                                           << what << " at byte offset "
                                           << pos);
  pos += 4;
  return wal::get_u32_le(data, pos - 4);
}

std::uint64_t take_varint(std::string_view data, std::size_t& pos,
                          const char* what) {
  const VarintDecode d = try_get_varint(data, pos);
  CT_CHECK_MSG(d.ok(), "columnar footer: " << what << " varint "
                                           << to_string(d.error)
                                           << " at byte offset " << pos);
  pos += d.length;
  return d.value;
}

std::uint8_t take_u8(std::string_view data, std::size_t& pos,
                     const char* what) {
  CT_CHECK_MSG(pos < data.size(), "columnar footer truncated in "
                                      << what << " at byte offset " << pos);
  return static_cast<std::uint8_t>(data[pos++]);
}

constexpr std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

void pad8(std::string& out) { out.resize(align8(out.size()), '\0'); }

/// Collects the engine's arena export into flat column buffers. The export
/// visits pool → covered sets (ascending id) → per process rows (ascending
/// index) then probes, so per-process counts fall out of the probes() calls
/// (one per process, after that process's rows).
struct ColumnCollector final : ClusterTimestampEngine::ArenaExportSink {
  std::string pool_data;
  std::string row_offset, row_aux, row_probe, row_width, row_counts;
  std::string probe_data, probe_counts;
  std::string cs_sizes, cs_procs;
  std::uint64_t pool_word_count = 0;
  std::uint64_t covered_sets = 0;
  std::uint64_t row_total = 0;
  std::uint64_t probe_total = 0;
  std::uint64_t cs_proc_total = 0;
  std::uint32_t rows_in_process = 0;

  void pool(const EventIndex* data, std::size_t words) override {
    pool_word_count = words;
    put_u32s(pool_data, data, words);
  }

  void covered_set(std::uint32_t id, std::span<const ProcessId> procs) override {
    CT_CHECK_MSG(id == covered_sets, "covered sets exported out of order");
    ++covered_sets;
    put_u32_le(cs_sizes, static_cast<std::uint32_t>(procs.size()));
    cs_proc_total += procs.size();
    put_u32s(cs_procs, procs.data(), procs.size());
  }

  void row(ProcessId, std::uint32_t offset, std::uint32_t aux,
           std::uint32_t probe_off, std::uint32_t width) override {
    put_u32_le(row_offset, offset);
    put_u32_le(row_aux, aux);
    put_u32_le(row_probe, probe_off);
    put_u32_le(row_width, width);
    ++rows_in_process;
    ++row_total;
  }

  void probes(ProcessId, const std::uint32_t* offsets,
              std::size_t count) override {
    put_u32_le(row_counts, rows_in_process);
    rows_in_process = 0;
    put_u32_le(probe_counts, static_cast<std::uint32_t>(count));
    probe_total += count;
    put_u32s(probe_data, offsets, count);
  }
};

std::uint32_t element_size_of(ColumnId id) {
  switch (id) {
    case ColumnId::kEvRecords: return 1;
    case ColumnId::kEvRunOffsets: return 8;
    default: return 4;
  }
}

}  // namespace

const char* to_string(ColumnId id) {
  switch (id) {
    case ColumnId::kEvRecords: return "ev_records";
    case ColumnId::kEvRunOffsets: return "ev_run_offsets";
    case ColumnId::kPool: return "pool";
    case ColumnId::kRowOffset: return "row_offset";
    case ColumnId::kRowAux: return "row_aux";
    case ColumnId::kRowProbe: return "row_probe";
    case ColumnId::kRowWidth: return "row_width";
    case ColumnId::kRowCounts: return "row_counts";
    case ColumnId::kProbes: return "probes";
    case ColumnId::kProbeCounts: return "probe_counts";
    case ColumnId::kCsSizes: return "cs_sizes";
    case ColumnId::kCsProcs: return "cs_procs";
  }
  return "?";
}

const ColumnInfo* ColumnarManifest::column(ColumnId id) const {
  for (const ColumnInfo& c : columns) {
    if (c.id == id) return &c;
  }
  return nullptr;
}

std::uint64_t fnv1a64(std::string_view data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

std::string encode_image(const MonitoringEntity& monitor,
                         std::uint64_t generation, std::size_t block_bytes,
                         bool with_arena) {
  CT_CHECK_MSG(block_bytes > 0, "columnar block_bytes must be positive");
  const bool has_arena = with_arena && monitor.can_export_arena();

  // ---- event columns: the delivery log, in delivery order ----
  const std::uint64_t run_records = has_arena ? 1 : kEventRunRecords;
  std::string ev_records, ev_run_offsets;
  const auto log = monitor.delivery_log();
  for (std::size_t i = 0; i < log.size(); ++i) {
    if (i % run_records == 0) put_u64_le(ev_run_offsets, ev_records.size());
    wal::encode_record(ev_records, monitor.event(log[i]));
  }
  const std::uint64_t runs = ev_run_offsets.size() / 8;

  // ---- arena columns (when asked for and the backend exports one) ----
  ColumnCollector arena;
  if (has_arena) {
    monitor.export_arena(arena);
    CT_CHECK_MSG(arena.rows_in_process == 0,
                 "arena export ended mid-process");
    CT_CHECK_MSG(arena.row_total == log.size(),
                 "arena export rows " << arena.row_total
                                      << " != delivered events "
                                      << log.size());
  }

  struct Segment {
    ColumnId id;
    std::uint64_t count;
    const std::string* data;
  };
  std::vector<Segment> segments = {
      {ColumnId::kEvRecords, ev_records.size(), &ev_records},
      {ColumnId::kEvRunOffsets, runs, &ev_run_offsets},
  };
  if (has_arena) {
    const std::uint64_t procs = monitor.process_count();
    segments.insert(
        segments.end(),
        {{ColumnId::kPool, arena.pool_word_count, &arena.pool_data},
         {ColumnId::kRowOffset, arena.row_total, &arena.row_offset},
         {ColumnId::kRowAux, arena.row_total, &arena.row_aux},
         {ColumnId::kRowProbe, arena.row_total, &arena.row_probe},
         {ColumnId::kRowWidth, arena.row_total, &arena.row_width},
         {ColumnId::kRowCounts, procs, &arena.row_counts},
         {ColumnId::kProbes, arena.probe_total, &arena.probe_data},
         {ColumnId::kProbeCounts, procs, &arena.probe_counts},
         {ColumnId::kCsSizes, arena.covered_sets, &arena.cs_sizes},
         {ColumnId::kCsProcs, arena.cs_proc_total, &arena.cs_procs}});
  }

  // ---- lay out: header, aligned segments, footer, trailer ----
  std::vector<ColumnInfo> columns;
  columns.reserve(segments.size());
  std::size_t cursor = kColumnarHeaderBytes;
  for (const Segment& seg : segments) {
    ColumnInfo info;
    info.id = seg.id;
    info.element_size = element_size_of(seg.id);
    info.element_count = seg.count;
    info.offset = align8(cursor);
    info.bytes = seg.data->size();
    CT_CHECK_MSG(info.bytes == info.element_size * seg.count,
                 "column " << to_string(seg.id) << " size mismatch");
    info.digest = fnv1a64(*seg.data);
    for (std::size_t at = 0; at < seg.data->size(); at += block_bytes) {
      const std::size_t len = std::min(block_bytes, seg.data->size() - at);
      info.block_crcs.push_back(
          crc32c(std::string_view(*seg.data).substr(at, len)));
    }
    cursor = align8(cursor) + seg.data->size();
    columns.push_back(std::move(info));
  }
  const std::uint64_t footer_offset = align8(cursor);

  std::string footer;
  footer.push_back(static_cast<char>(kColumnarVersion));
  footer.push_back(static_cast<char>(has_arena ? 1 : 0));
  put_varint(footer, generation);
  put_varint(footer, log.size());  // covered WAL position == delivered count
  put_varint(footer, monitor.process_count());
  put_varint(footer, log.size());
  put_varint(footer, run_records);
  put_varint(footer, arena.pool_word_count);
  put_varint(footer, arena.covered_sets);
  put_varint(footer, block_bytes);

  // Options block: the restored monitor must be constructed with the same
  // configuration — including the committed re-clustering baseline —
  // before any event is replayed.
  const MonitorOptions& options = monitor.options();
  footer.push_back(static_cast<char>(options.backend));
  put_u64_le(footer, std::bit_cast<std::uint64_t>(options.nth_threshold));
  put_varint(footer, options.cluster.max_cluster_size);
  put_varint(footer, options.cluster.fm_vector_width);
  put_varint(footer, options.cluster.encoded_cluster_width);
  put_varint(footer, options.delivery.max_buffered);
  put_varint(footer, options.delivery.orphan_timeout);
  put_varint(footer, options.migration_epoch);
  put_varint(footer, options.preset_partition.size());
  for (const auto& members : options.preset_partition) {
    put_varint(footer, members.size());
    for (const ProcessId p : members) put_varint(footer, p);
  }

  // Restored-state accounting (docs/FAULT_MODEL.md §5): records still
  // buffered or quarantined are not in the image, so their ingestion is
  // uncounted after restore — the invariant holds on the saved counters.
  MonitorHealth health = monitor.health();
  health.ingested -= health.pending + health.quarantined;
  health.pending = 0;
  health.quarantined = 0;
  put_varint(footer, health.ingested);
  put_varint(footer, health.delivered);
  put_varint(footer, health.duplicates);
  put_varint(footer, health.rejected);
  put_varint(footer, health.evicted);
  put_varint(footer, health.readmitted);
  put_varint(footer, health.max_queue_depth);

  put_u64_le(footer, monitor.state_digest());

  put_varint(footer, columns.size());
  for (const ColumnInfo& c : columns) {
    footer.push_back(static_cast<char>(c.id));
    put_varint(footer, c.element_size);
    put_varint(footer, c.element_count);
    put_varint(footer, c.offset);
    put_varint(footer, c.bytes);
    put_u64_le(footer, c.digest);
    put_varint(footer, c.block_crcs.size());
    for (const std::uint32_t crc : c.block_crcs) put_u32_le(footer, crc);
  }

  // ---- assemble in one allocation of the final size ----
  // (appending alone would double past it, copying the image on the way)
  std::string out;
  out.reserve(static_cast<std::size_t>(footer_offset) + footer.size() +
              kColumnarTrailerBytes);
  out.append(kColumnarMagic, 4);
  out.append(4, '\0');
  for (const Segment& seg : segments) {
    pad8(out);
    out += *seg.data;
  }
  pad8(out);
  out += footer;
  put_u64_le(out, footer_offset);
  put_u32_le(out, crc32c(footer));
  out.append(kColumnarEndMagic, 4);
  return out;
}

}  // namespace

std::string encode_columnar(const MonitoringEntity& monitor,
                            std::uint64_t generation,
                            std::size_t block_bytes) {
  return encode_image(monitor, generation, block_bytes, /*with_arena=*/true);
}

std::string encode_checkpoint(const MonitoringEntity& monitor) {
  return encode_image(monitor, /*generation=*/0, kColumnarBlockBytes,
                      /*with_arena=*/false);
}

ColumnarManifest parse_columnar_manifest(std::string_view bytes) {
  CT_CHECK_MSG(bytes.compare(0, 4, "CTS1") != 0,
               "CTS1 snapshot: a removed format, no longer read (checkpoints "
               "are CTC1 images)");
  CT_CHECK_MSG(bytes.size() >= kColumnarHeaderBytes + kColumnarTrailerBytes &&
                   bytes.compare(0, 4, kColumnarMagic) == 0,
               "not a CTC1 columnar snapshot");
  CT_CHECK_MSG(
      bytes.compare(bytes.size() - 4, 4, kColumnarEndMagic) == 0,
      "columnar end magic missing at byte offset " << bytes.size() - 4);

  // ---- trailer → footer location, footer CRC before anything else ----
  std::size_t pos = bytes.size() - kColumnarTrailerBytes;
  const std::uint64_t footer_offset = take_u64_le(bytes, pos, "trailer");
  const std::uint32_t stored_crc = take_u32_le(bytes, pos, "trailer");
  CT_CHECK_MSG(footer_offset >= kColumnarHeaderBytes &&
                   footer_offset <= bytes.size() - kColumnarTrailerBytes &&
                   footer_offset % 8 == 0,
               "columnar footer offset " << footer_offset
                                         << " out of bounds at byte offset "
                                         << bytes.size() -
                                                kColumnarTrailerBytes);
  const std::string_view footer = bytes.substr(
      footer_offset, bytes.size() - kColumnarTrailerBytes - footer_offset);
  const std::uint32_t computed_crc = crc32c(footer);
  if (stored_crc != computed_crc) {
    throw ChecksumError(
        "columnar footer CRC mismatch at byte offset " +
        std::to_string(footer_offset) + ": trailer " +
        std::to_string(stored_crc) + " vs computed " +
        std::to_string(computed_crc));
  }

  // ---- manifest body (absolute offsets keep error tags file-relative) ----
  ColumnarManifest m;
  pos = footer_offset;
  m.footer_offset = footer_offset;
  const std::string_view body =
      bytes.substr(0, bytes.size() - kColumnarTrailerBytes);
  m.version = take_u8(body, pos, "version");
  CT_CHECK_MSG(m.version != 1,
               "CTC1 version 1 image: no longer read (version 2 stores "
               "events as WAL records)");
  CT_CHECK_MSG(m.version == kColumnarVersion,
               "unsupported columnar version " << int{m.version});
  const std::uint8_t arena_flag = take_u8(body, pos, "arena flag");
  CT_CHECK_MSG(arena_flag <= 1, "columnar arena flag " << int{arena_flag}
                                                       << " at byte offset "
                                                       << pos - 1);
  m.has_arena = arena_flag == 1;
  m.generation = take_varint(body, pos, "generation");
  m.wal_position = take_varint(body, pos, "wal position");
  m.process_count = take_varint(body, pos, "process count");
  CT_CHECK_MSG(m.process_count > 0 && m.process_count <= (1u << 20),
               "implausible columnar process count " << m.process_count);
  m.event_count = take_varint(body, pos, "event count");
  CT_CHECK_MSG(m.wal_position == m.event_count,
               "columnar WAL position " << m.wal_position
                                        << " disagrees with its "
                                        << m.event_count << " events");
  m.run_records = take_varint(body, pos, "run records");
  CT_CHECK_MSG(m.run_records >= 1 && m.run_records <= kEventRunRecords,
               "columnar run of " << m.run_records << " records, outside [1, "
                                  << kEventRunRecords << "]");
  m.pool_words = take_varint(body, pos, "pool words");
  m.covered_set_count = take_varint(body, pos, "covered set count");
  m.block_bytes = take_varint(body, pos, "block bytes");
  CT_CHECK_MSG(m.block_bytes > 0, "columnar block bytes is zero");

  const std::uint8_t backend_raw = take_u8(body, pos, "backend");
  CT_CHECK_MSG(
      backend_raw <=
          static_cast<std::uint8_t>(TimestampBackend::kClusterDynamic),
      "unknown backend code " << int{backend_raw} << " at byte offset "
                              << pos - 1);
  m.options.backend = static_cast<TimestampBackend>(backend_raw);
  m.options.nth_threshold =
      std::bit_cast<double>(take_u64_le(body, pos, "nth threshold"));
  m.options.cluster.max_cluster_size =
      static_cast<std::size_t>(take_varint(body, pos, "max cluster size"));
  m.options.cluster.fm_vector_width =
      static_cast<std::size_t>(take_varint(body, pos, "fm vector width"));
  m.options.cluster.encoded_cluster_width = static_cast<std::size_t>(
      take_varint(body, pos, "encoded cluster width"));
  m.options.delivery.max_buffered =
      static_cast<std::size_t>(take_varint(body, pos, "max buffered"));
  m.options.delivery.orphan_timeout =
      take_varint(body, pos, "orphan timeout");
  m.options.migration_epoch = take_varint(body, pos, "migration epoch");
  const std::uint64_t clusters = take_varint(body, pos, "partition size");
  CT_CHECK_MSG(clusters <= (1u << 20),
               "implausible columnar partition size " << clusters);
  m.options.preset_partition.resize(static_cast<std::size_t>(clusters));
  for (auto& members : m.options.preset_partition) {
    const std::uint64_t size = take_varint(body, pos, "cluster size");
    CT_CHECK_MSG(size > 0 && size <= (1u << 20),
                 "implausible columnar cluster size " << size);
    members.reserve(static_cast<std::size_t>(size));
    for (std::uint64_t i = 0; i < size; ++i) {
      const std::uint64_t p = take_varint(body, pos, "partition member");
      CT_CHECK_MSG(p < m.process_count,
                   "columnar partition member " << p
                                                << " out of range at byte "
                                                   "offset "
                                                << pos);
      members.push_back(static_cast<ProcessId>(p));
    }
  }
  CT_CHECK_MSG(
      m.options.preset_partition.empty() || m.options.migration_epoch > 0,
      "columnar image has a preset partition but epoch 0");

  m.health.ingested = take_varint(body, pos, "health.ingested");
  m.health.delivered = take_varint(body, pos, "health.delivered");
  m.health.duplicates = take_varint(body, pos, "health.duplicates");
  m.health.rejected = take_varint(body, pos, "health.rejected");
  m.health.evicted = take_varint(body, pos, "health.evicted");
  m.health.readmitted = take_varint(body, pos, "health.readmitted");
  m.health.max_queue_depth = take_varint(body, pos, "health.max_queue_depth");
  CT_CHECK_MSG(m.health.delivered == m.event_count,
               "columnar counters disagree with the log: delivered "
                   << m.health.delivered << " vs " << m.event_count
                   << " events");
  CT_CHECK_MSG(m.health.accounted(),
               "columnar counters do not account for every record");

  m.state_digest = take_u64_le(body, pos, "state digest");

  // ---- column table: exact set, order, extents ----
  const std::uint64_t column_count = take_varint(body, pos, "column count");
  const std::uint64_t expected =
      m.has_arena ? kColumnarColumnCount : kEventColumnCount;
  CT_CHECK_MSG(column_count == expected,
               "columnar table has " << column_count << " columns, expected "
                                     << expected);
  m.columns.reserve(static_cast<std::size_t>(column_count));
  std::uint64_t cursor = kColumnarHeaderBytes;
  for (std::uint64_t i = 0; i < column_count; ++i) {
    ColumnInfo c;
    const std::uint8_t id_raw = take_u8(body, pos, "column id");
    CT_CHECK_MSG(id_raw == i,
                 "column " << i << " has id " << int{id_raw}
                           << " at byte offset " << pos - 1);
    c.id = static_cast<ColumnId>(id_raw);
    c.element_size =
        static_cast<std::uint32_t>(take_varint(body, pos, "element size"));
    CT_CHECK_MSG(c.element_size == element_size_of(c.id),
                 "column " << to_string(c.id) << " element size "
                           << c.element_size);
    c.element_count = take_varint(body, pos, "element count");
    c.offset = take_varint(body, pos, "column offset");
    c.bytes = take_varint(body, pos, "column bytes");
    CT_CHECK_MSG(c.bytes == c.element_size * c.element_count,
                 "column " << to_string(c.id) << " extent " << c.bytes
                           << " != " << c.element_size << " * "
                           << c.element_count);
    CT_CHECK_MSG(c.offset == align8(cursor),
                 "column " << to_string(c.id) << " at byte offset "
                           << c.offset << ", expected " << align8(cursor));
    cursor = c.offset + c.bytes;
    CT_CHECK_MSG(cursor <= footer_offset,
                 "column " << to_string(c.id)
                           << " overruns the footer at byte offset "
                           << footer_offset);
    c.digest = take_u64_le(body, pos, "column digest");
    const std::uint64_t blocks = take_varint(body, pos, "block count");
    const std::uint64_t expected_blocks =
        (c.bytes + m.block_bytes - 1) / m.block_bytes;
    CT_CHECK_MSG(blocks == expected_blocks,
                 "column " << to_string(c.id) << " has " << blocks
                           << " block CRCs, expected " << expected_blocks);
    c.block_crcs.reserve(static_cast<std::size_t>(blocks));
    for (std::uint64_t b = 0; b < blocks; ++b) {
      c.block_crcs.push_back(take_u32_le(body, pos, "block CRC"));
    }
    m.columns.push_back(std::move(c));
  }
  CT_CHECK_MSG(align8(cursor) == footer_offset,
               "columnar footer at byte offset "
                   << footer_offset << " but columns end at " << cursor);
  CT_CHECK_MSG(pos == body.size(),
               "trailing bytes after columnar footer (" << body.size() - pos
                                                        << ")");

  // Count cross-checks between the scalar fields and the column table.
  auto expect_count = [&m](ColumnId id, std::uint64_t count) {
    const ColumnInfo* c = m.column(id);
    CT_CHECK_MSG(c != nullptr && c->element_count == count,
                 "column " << to_string(id) << " has "
                           << (c ? c->element_count : 0) << " elements, "
                           << "expected " << count);
  };
  expect_count(ColumnId::kEvRunOffsets,
               (m.event_count + m.run_records - 1) / m.run_records);
  if (m.has_arena) {
    expect_count(ColumnId::kPool, m.pool_words);
    expect_count(ColumnId::kRowOffset, m.event_count);
    expect_count(ColumnId::kRowAux, m.event_count);
    expect_count(ColumnId::kRowProbe, m.event_count);
    expect_count(ColumnId::kRowWidth, m.event_count);
    expect_count(ColumnId::kRowCounts, m.process_count);
    expect_count(ColumnId::kProbeCounts, m.process_count);
    expect_count(ColumnId::kCsSizes, m.covered_set_count);
  }
  return m;
}

void verify_columnar_blocks(std::string_view bytes,
                            const ColumnarManifest& manifest) {
  const auto block_bytes = static_cast<std::size_t>(manifest.block_bytes);
  for (const ColumnInfo& c : manifest.columns) {
    CT_CHECK_MSG(c.offset + c.bytes <= bytes.size(),
                 "column " << to_string(c.id) << " out of bounds");
    const std::string_view data = bytes.substr(
        static_cast<std::size_t>(c.offset), static_cast<std::size_t>(c.bytes));
    auto check = [&](std::size_t b, std::uint32_t computed) {
      if (computed == c.block_crcs[b]) return;
      throw ChecksumError(
          "column " + std::string(to_string(c.id)) + " block " +
          std::to_string(b) + " CRC mismatch at byte offset " +
          std::to_string(c.offset + b * block_bytes) + ": stored " +
          std::to_string(c.block_crcs[b]) + " vs computed " +
          std::to_string(computed));
    };
    // Full blocks three at a time, the rest one by one.
    const std::size_t full = data.size() / block_bytes;
    std::size_t b = 0;
    for (; b + 3 <= full; b += 3) {
      const char* at = data.data() + b * block_bytes;
      const auto crcs =
          crc32c_x3(at, at + block_bytes, at + 2 * block_bytes, block_bytes);
      for (std::size_t k = 0; k < 3; ++k) check(b + k, crcs[k]);
    }
    for (; b < c.block_crcs.size(); ++b) {
      const std::size_t at = b * block_bytes;
      check(b, crc32c(data.substr(at, std::min(block_bytes, data.size() - at))));
    }
  }
}

void verify_columnar_digests(std::string_view bytes,
                             const ColumnarManifest& manifest) {
  for (const ColumnInfo& c : manifest.columns) {
    CT_CHECK_MSG(c.offset + c.bytes <= bytes.size(),
                 "column " << to_string(c.id) << " out of bounds");
    const std::uint64_t digest = fnv1a64(bytes.substr(
        static_cast<std::size_t>(c.offset), static_cast<std::size_t>(c.bytes)));
    if (digest != c.digest) {
      throw ChecksumError("column " + std::string(to_string(c.id)) +
                          " digest mismatch at byte offset " +
                          std::to_string(c.offset));
    }
  }
}

// --- object naming ---------------------------------------------------------

namespace {
constexpr char kColumnarPrefix[] = "ctc-";
constexpr char kColumnarSuffix[] = ".col";
constexpr char kColumnarTmpSuffix[] = ".col.tmp";
}  // namespace

std::string columnar_object_name(std::uint64_t generation,
                                 const std::string& ns) {
  return ns + kColumnarPrefix + std::to_string(generation) + kColumnarSuffix;
}

std::string columnar_tmp_name(std::uint64_t generation, const std::string& ns) {
  return ns + kColumnarPrefix + std::to_string(generation) +
         kColumnarTmpSuffix;
}

namespace {
std::optional<std::uint64_t> parse_generation(const std::string& name,
                                              const std::string& ns,
                                              const char* suffix) {
  const std::string prefix = ns + kColumnarPrefix;
  const std::size_t suffix_len = std::strlen(suffix);
  if (name.size() <= prefix.size() + suffix_len) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix_len, suffix_len, suffix) != 0) {
    return std::nullopt;
  }
  const std::string digits = name.substr(
      prefix.size(), name.size() - prefix.size() - suffix_len);
  if (digits.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}
}  // namespace

std::optional<std::uint64_t> parse_columnar_name(const std::string& name,
                                                 const std::string& ns) {
  if (is_columnar_tmp_name(name, ns)) return std::nullopt;
  return parse_generation(name, ns, kColumnarSuffix);
}

bool is_columnar_tmp_name(const std::string& name, const std::string& ns) {
  return parse_generation(name, ns, kColumnarTmpSuffix).has_value();
}

}  // namespace ct
