#include "store/mapped_view.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "durability/storage.hpp"
#include "durability/wal.hpp"
#include "util/check.hpp"

namespace ct {

// --- ColdBytes -------------------------------------------------------------

ColdBytes::ColdBytes(ColdBytes&& other) noexcept
    : owned_(std::move(other.owned_)),
      map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)) {}

ColdBytes& ColdBytes::operator=(ColdBytes&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_size_);
    owned_ = std::move(other.owned_);
    map_ = std::exchange(other.map_, nullptr);
    map_size_ = std::exchange(other.map_size_, 0);
  }
  return *this;
}

ColdBytes::~ColdBytes() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

ColdBytes ColdBytes::map_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  CT_CHECK_MSG(fd >= 0, "cannot open '" << path << "' for mapping");
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw CheckFailure("cannot stat '" + path + "'");
  }
  ColdBytes out;
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size > 0) {
    void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    CT_CHECK_MSG(p != MAP_FAILED, "mmap of '" << path << "' failed");
    out.map_ = p;
    out.map_size_ = size;
  } else {
    ::close(fd);
  }
  return out;
}

ColdBytes ColdBytes::from_string(std::string bytes) {
  ColdBytes out;
  out.owned_ = std::move(bytes);
  return out;
}

ColdBytes read_cold(const StorageBackend& storage, const std::string& name) {
  CT_CHECK_MSG(storage.exists(name), "no such object '" << name << "'");
  if (const auto* files = dynamic_cast<const FileStorage*>(&storage)) {
    return ColdBytes::map_file(files->root() + "/" + name);
  }
  return ColdBytes::from_string(storage.read(name));
}

// --- MappedSnapshot --------------------------------------------------------

const std::uint32_t* MappedSnapshot::u32_column(ColumnId id) const {
  const ColumnInfo* c = manifest_.column(id);
  CT_CHECK_MSG(c != nullptr, "column " << to_string(id) << " missing");
  return reinterpret_cast<const std::uint32_t*>(bytes_.view().data() +
                                                c->offset);
}

MappedSnapshot::MappedSnapshot(ColdBytes bytes) : bytes_(std::move(bytes)) {
  manifest_ = parse_columnar_manifest(bytes_.view());
  CT_CHECK_MSG(
      reinterpret_cast<std::uintptr_t>(bytes_.view().data()) % 4 == 0,
      "columnar image is not 4-byte aligned");

  const ColumnInfo* records = manifest_.column(ColumnId::kEvRecords);
  records_ = bytes_.view().substr(static_cast<std::size_t>(records->offset),
                                  static_cast<std::size_t>(records->bytes));
  const ColumnInfo* runs = manifest_.column(ColumnId::kEvRunOffsets);
  run_offsets_ = bytes_.view().substr(static_cast<std::size_t>(runs->offset),
                                      static_cast<std::size_t>(runs->bytes));
  if (!manifest_.has_arena) return;

  pool_ = u32_column(ColumnId::kPool);
  row_offset_ = u32_column(ColumnId::kRowOffset);
  row_aux_ = u32_column(ColumnId::kRowAux);
  row_probe_ = u32_column(ColumnId::kRowProbe);
  row_width_ = u32_column(ColumnId::kRowWidth);
  probes_ = u32_column(ColumnId::kProbes);

  // ---- O(P) index tables; every count cross-checked before use ----
  const std::size_t procs = process_count();
  const std::uint32_t* row_counts = u32_column(ColumnId::kRowCounts);
  const std::uint32_t* probe_counts = u32_column(ColumnId::kProbeCounts);
  row_base_.assign(procs + 1, 0);
  probe_base_.assign(procs + 1, 0);
  for (std::size_t p = 0; p < procs; ++p) {
    row_base_[p + 1] = row_base_[p] + row_counts[p];
    probe_base_[p + 1] = probe_base_[p] + probe_counts[p];
  }
  const ColumnInfo* rc = manifest_.column(ColumnId::kRowCounts);
  CT_CHECK_MSG(row_base_[procs] == manifest_.event_count,
               "row counts sum to " << row_base_[procs] << ", not the "
                                    << manifest_.event_count
                                    << " events, at byte offset "
                                    << rc->offset);
  const ColumnInfo* pc = manifest_.column(ColumnId::kProbeCounts);
  CT_CHECK_MSG(
      probe_base_[procs] == manifest_.column(ColumnId::kProbes)->element_count,
      "probe counts sum to " << probe_base_[procs] << ", not the "
                             << manifest_.column(ColumnId::kProbes)
                                    ->element_count
                             << " probe entries, at byte offset "
                             << pc->offset);

  const std::uint32_t* cs_sizes = u32_column(ColumnId::kCsSizes);
  const std::uint32_t* cs_procs = u32_column(ColumnId::kCsProcs);
  const ColumnInfo* csp = manifest_.column(ColumnId::kCsProcs);
  const std::size_t n_cs =
      static_cast<std::size_t>(manifest_.covered_set_count);
  cs_.resize(n_cs);
  std::uint64_t member_cursor = 0;
  for (std::size_t s = 0; s < n_cs; ++s) {
    CsIndex& cs = cs_[s];
    cs.size = cs_sizes[s];
    CT_CHECK_MSG(member_cursor + cs.size <= csp->element_count,
                 "covered set " << s << " overruns the member column at byte "
                                   "offset "
                                << csp->offset + member_cursor * 4);
    cs.pos.assign(procs, -1);
    for (std::uint64_t i = 0; i < cs.size; ++i) {
      const std::uint32_t p = cs_procs[member_cursor + i];
      const std::uint64_t at = csp->offset + (member_cursor + i) * 4;
      CT_CHECK_MSG(p < procs, "covered set " << s << " member " << p
                                             << " out of range at byte "
                                                "offset "
                                             << at);
      CT_CHECK_MSG(cs.pos[p] < 0, "covered set " << s << " repeats process "
                                                 << p << " at byte offset "
                                                 << at);
      cs.pos[p] = static_cast<std::int32_t>(i);
    }
    member_cursor += cs.size;
  }
  CT_CHECK_MSG(member_cursor == csp->element_count,
               "covered set sizes sum to " << member_cursor << ", member "
                                              "column has "
                                           << csp->element_count
                                           << " at byte offset "
                                           << csp->offset);
}

std::uint64_t MappedSnapshot::run_offset(std::uint64_t run) const {
  // Read in place rather than through wal::get_u64_le, which is not
  // inlined: verify_structure reads one offset per record of an arena
  // image. Little-endian, as every fixed-width column (format.cpp).
  std::uint64_t offset = 0;
  std::memcpy(&offset, run_offsets_.data() + run * 8, 8);
  return offset;
}

Event MappedSnapshot::decode_event(std::uint64_t i, std::size_t& pos) const {
  const std::size_t at = pos;
  Event e;
  CT_CHECK_MSG(wal::decode_record(records_, pos, e),
               "event " << i << " is a malformed record at byte offset "
                        << manifest_.column(ColumnId::kEvRecords)->offset +
                               at);
  return e;
}

Event MappedSnapshot::event(std::uint64_t i) const {
  CT_CHECK_MSG(i < manifest_.event_count,
               "event " << i << " past the " << manifest_.event_count
                        << " stored events");
  // Decode from the start of the record's run (the record itself in an
  // arena image). The offset is clamped so a corrupt one reads as a
  // malformed record.
  const std::uint64_t run = manifest_.run_records;
  std::size_t pos = static_cast<std::size_t>(
      std::min<std::uint64_t>(run_offset(i / run), records_.size()));
  for (std::uint64_t k = i - i % run; k < i; ++k) decode_event(k, pos);
  return decode_event(i, pos);
}

EventIndex MappedSnapshot::delivered_count(ProcessId p) const {
  CT_CHECK_MSG(manifest_.has_arena && p < process_count(),
               "delivered_count(" << p << ") on a non-arena image");
  return static_cast<EventIndex>(row_base_[p + 1] - row_base_[p]);
}

bool MappedSnapshot::precedes(const Event& ev_e, const Event& ev_f) const {
  const EventId e = ev_e.id;
  const EventId f = ev_f.id;
  CT_CHECK_MSG(manifest_.has_arena, "precedes on an events-only image");
  // f.index - 1 wraps for index 0, so one unsigned compare covers both ends.
  CT_CHECK_MSG(f.process < process_count() &&
                   std::uint64_t{f.index} - 1 <
                       row_base_[f.process + 1] - row_base_[f.process],
               "event " << f << " is not in the image");
  CT_CHECK_MSG(e.process < process_count(),
               "event " << e << " is not in the image");
  if (e == f) return false;
  if (ev_e.kind == EventKind::kSync && ev_e.partner == f) return false;

  const std::size_t r =
      static_cast<std::size_t>(row_base_[f.process]) + f.index - 1;
  const std::uint32_t* row = pool_ + row_offset_[r];
  const std::uint32_t aux = row_aux_[r];
  if (aux == kColumnarFullRow) return e.index <= row[e.process];

  const CsIndex& cs = cs_[aux];
  if (const std::int32_t slot = cs.pos[e.process]; slot >= 0) {
    return e.index <= row[static_cast<std::size_t>(slot)];
  }
  const std::uint32_t* probe_row =
      probes_ + probe_base_[f.process] + row_probe_[r];
  for (std::uint64_t i = 0; i < cs.size; ++i) {
    const std::uint32_t off = probe_row[i];
    if (off == kColumnarNoProbe) continue;
    if (e.index <= pool_[off + e.process]) return true;
  }
  return false;
}

void MappedSnapshot::verify_structure() const {
  const std::size_t procs = process_count();

  // ---- event records: well formed, indexed at every run start, ids in
  // range, per-process consecutive indices, filling the column exactly ----
  std::vector<std::uint32_t> seen(procs, 0);
  const std::uint64_t base = manifest_.column(ColumnId::kEvRecords)->offset;
  const std::uint64_t runs_at =
      manifest_.column(ColumnId::kEvRunOffsets)->offset;
  std::size_t pos = 0;
  for (std::uint64_t run = 0, i = 0; i < manifest_.event_count; ++run) {
    CT_CHECK_MSG(run_offset(run) == pos,
                 "run " << run << " names record offset " << run_offset(run)
                        << " but event " << i << " starts at " << pos
                        << ", at byte offset " << runs_at + run * 8);
    const std::uint64_t run_end =
        std::min(i + manifest_.run_records, manifest_.event_count);
    for (; i < run_end; ++i) {
      const std::size_t at = pos;
      const Event e = decode_event(i, pos);
      const std::uint32_t p = e.id.process;
      CT_CHECK_MSG(p < procs, "event " << i << " names process " << p
                                       << " of " << procs
                                       << " at byte offset " << base + at);
      CT_CHECK_MSG(e.id.index == seen[p] + 1,
                   "event " << i << " has index " << e.id.index
                            << ", expected " << seen[p] + 1
                            << " for process " << p << " at byte offset "
                            << base + at);
      ++seen[p];
    }
  }
  CT_CHECK_MSG(pos == records_.size(),
               "ev_records holds " << records_.size() - pos
                                   << " bytes past its last event at byte "
                                      "offset "
                                   << base + pos);
  if (!manifest_.has_arena) return;

  // ---- arena columns: every descriptor within the pool and its tables ----
  const std::uint32_t* cs_sizes = u32_column(ColumnId::kCsSizes);
  const ColumnInfo* ro = manifest_.column(ColumnId::kRowOffset);
  const ColumnInfo* ra = manifest_.column(ColumnId::kRowAux);
  const ColumnInfo* rp = manifest_.column(ColumnId::kRowProbe);
  const ColumnInfo* rw = manifest_.column(ColumnId::kRowWidth);
  const ColumnInfo* pr = manifest_.column(ColumnId::kProbes);
  for (std::size_t p = 0; p < procs; ++p) {
    CT_CHECK_MSG(row_base_[p + 1] - row_base_[p] == seen[p],
                 "process " << p << " has " << row_base_[p + 1] - row_base_[p]
                            << " rows but " << seen[p]
                            << " delivered events");
    for (std::uint64_t r = row_base_[p]; r < row_base_[p + 1]; ++r) {
      const auto i = static_cast<std::size_t>(r);
      const std::uint64_t width = row_width_[i];
      CT_CHECK_MSG(row_offset_[i] + width <= manifest_.pool_words,
                   "row " << r << " spans [" << row_offset_[i] << ", "
                          << row_offset_[i] + width
                          << ") past the pool at byte offset "
                          << ro->offset + r * 4);
      const std::uint32_t aux = row_aux_[i];
      if (aux == kColumnarFullRow) {
        CT_CHECK_MSG(width == procs,
                     "full row " << r << " has width " << width
                                 << ", not " << procs << ", at byte offset "
                                 << rw->offset + r * 4);
      } else {
        CT_CHECK_MSG(aux < manifest_.covered_set_count,
                     "row " << r << " projects covered set " << aux << " of "
                            << manifest_.covered_set_count
                            << " at byte offset " << ra->offset + r * 4);
        CT_CHECK_MSG(width == cs_sizes[aux],
                     "row " << r << " has width " << width
                            << " but covered set " << aux << " has "
                            << cs_sizes[aux] << " members at byte offset "
                            << rw->offset + r * 4);
        CT_CHECK_MSG(row_probe_[i] + width <=
                         probe_base_[p + 1] - probe_base_[p],
                     "row " << r << " probes past process " << p
                            << "'s probe table at byte offset "
                            << rp->offset + r * 4);
      }
    }
    for (std::uint64_t j = probe_base_[p]; j < probe_base_[p + 1]; ++j) {
      const std::uint32_t off = probes_[static_cast<std::size_t>(j)];
      CT_CHECK_MSG(off == kColumnarNoProbe ||
                       off + static_cast<std::uint64_t>(procs) <=
                           manifest_.pool_words,
                   "probe " << j << " targets pool offset " << off
                            << " past the pool at byte offset "
                            << pr->offset + j * 4);
    }
  }
}

}  // namespace ct
