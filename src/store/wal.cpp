#include "store/wal.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "util/bytes.h"
#include "util/log.h"

namespace w5::store {

namespace fs = std::filesystem;

std::string to_string(DurabilityMode mode) {
  switch (mode) {
    case DurabilityMode::kNone:
      return "none";
    case DurabilityMode::kInterval:
      return "interval";
    case DurabilityMode::kFsync:
      return "fsync";
  }
  return "none";
}

namespace {

void put_u32(std::uint32_t v, std::string& out) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

void put_u64(std::uint64_t v, std::string& out) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

std::uint32_t read_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}

std::uint64_t read_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  return v;
}

util::Micros steady_micros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// wal-<seq, 20 decimal digits>.log — zero-padded so lexicographic
// directory order is sequence order.
constexpr char kSegmentPrefix[] = "wal-";
constexpr char kSegmentSuffix[] = ".log";

struct SegmentFile {
  std::uint64_t first_seq = 0;
  fs::path path;
  bool operator<(const SegmentFile& other) const {
    return first_seq < other.first_seq;
  }
};

std::vector<SegmentFile> list_segments(const std::string& dir) {
  std::vector<SegmentFile> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!name.starts_with(kSegmentPrefix) || !name.ends_with(kSegmentSuffix))
      continue;
    const std::string digits = name.substr(
        sizeof(kSegmentPrefix) - 1,
        name.size() - sizeof(kSegmentPrefix) - sizeof(kSegmentSuffix) + 2);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos)
      continue;
    out.push_back({std::strtoull(digits.c_str(), nullptr, 10), entry.path()});
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string wal_segment_name(std::uint64_t first_seq) {
  std::string digits = std::to_string(first_seq);
  return std::string(kSegmentPrefix) +
         std::string(20 - std::min<std::size_t>(digits.size(), 20), '0') +
         digits + kSegmentSuffix;
}

void wal_encode_frame(std::uint64_t seq, std::string_view payload,
                      std::string& out) {
  std::string seq_le;
  put_u64(seq, seq_le);
  const std::uint32_t crc =
      util::crc32_update(util::crc32(seq_le), payload);
  put_u32(static_cast<std::uint32_t>(payload.size()), out);
  put_u32(crc, out);
  out += seq_le;
  out += payload;
}

util::Result<WriteAheadLog::ReplayResult> WriteAheadLog::replay(
    const std::string& dir, std::uint64_t from_seq,
    const std::function<util::Status(std::uint64_t seq,
                                     const std::string& payload)>& apply,
    bool repair) {
  ReplayResult result;
  result.last_seq = from_seq > 0 ? from_seq - 1 : 0;

  std::vector<SegmentFile> segments = list_segments(dir);
  // Segments entirely below the snapshot boundary are already covered by
  // the snapshot (rotation precedes the snapshot that names `from_seq`,
  // so the boundary normally falls on a segment start); skip them without
  // touching them — compaction GC owns their removal. A segment is wholly
  // covered only when its *successor* also starts at or below from_seq:
  // the last segment at-or-below may still contain frames we need, which
  // the per-frame seq >= from_seq filter below skips cheaply.
  std::size_t first_needed = 0;
  for (std::size_t i = 0; i < segments.size(); ++i)
    if (segments[i].first_seq <= from_seq) first_needed = i;
  segments.erase(segments.begin(),
                 segments.begin() + static_cast<std::ptrdiff_t>(first_needed));

  // A hole *below* the log is not a torn tail: if the oldest surviving
  // segment starts after from_seq (e.g. the covering snapshot rotted and
  // recovery fell back to an older one whose segments were GC'd), frames
  // the caller needs are gone and "success" would silently drop committed
  // mutations. Sequences start at 1, so from_seq 0 means "everything".
  if (!segments.empty() &&
      segments.front().first_seq > std::max<std::uint64_t>(from_seq, 1)) {
    return util::make_error(
        "wal.replay",
        "missing segments: replay must resume at seq " +
            std::to_string(from_seq) + " but the oldest segment starts at " +
            std::to_string(segments.front().first_seq));
  }

  std::uint64_t expected = 0;
  // Where the valid prefix ends: the segment being read and the offset of
  // the first invalid byte in it (everything after is discarded by repair).
  std::size_t stop_segment = segments.size();
  std::uint64_t stop_offset = 0;

  for (std::size_t i = 0; i < segments.size(); ++i) {
    const SegmentFile& segment = segments[i];
    if (expected == 0) {
      expected = segment.first_seq;
    } else if (segment.first_seq != expected) {
      // A gap means the intervening segment vanished; everything from
      // here on is not a continuation of the committed prefix.
      stop_segment = i;
      result.tail_torn = true;
      break;
    }

    std::ifstream in(segment.path, std::ios::binary);
    if (!in) {
      stop_segment = i;
      result.tail_torn = true;
      break;
    }
    std::uint64_t offset = 0;
    std::string header(kWalHeaderBytes, '\0');
    std::string payload;
    bool torn = false;
    for (;;) {
      in.read(header.data(), static_cast<std::streamsize>(header.size()));
      if (in.gcount() == 0) break;  // clean end of segment
      if (static_cast<std::size_t>(in.gcount()) < header.size()) {
        torn = true;  // truncated mid-header
        break;
      }
      const std::uint32_t len = read_u32(header.data());
      const std::uint32_t crc = read_u32(header.data() + 4);
      const std::uint64_t seq = read_u64(header.data() + 8);
      if (len > kWalMaxPayloadBytes || seq != expected) {
        torn = true;  // corrupt length or sequence discontinuity
        break;
      }
      payload.resize(len);
      in.read(payload.data(), static_cast<std::streamsize>(len));
      if (static_cast<std::size_t>(in.gcount()) < len) {
        torn = true;  // truncated mid-payload
        break;
      }
      const std::uint32_t actual = util::crc32_update(
          util::crc32(std::string_view(header.data() + 8, 8)), payload);
      if (actual != crc) {
        torn = true;  // bit rot or a torn rewrite
        break;
      }
      if (seq >= from_seq) {
        if (auto status = apply(seq, payload); !status.ok())
          return status.error();
        ++result.entries;
      }
      result.last_seq = seq;
      expected = seq + 1;
      offset += kWalHeaderBytes + len;
    }
    if (torn) {
      stop_segment = i;
      stop_offset = offset;
      result.tail_torn = true;
      break;
    }
  }

  if (repair && result.tail_torn && stop_segment < segments.size()) {
    std::error_code ec;
    const auto size = fs::file_size(segments[stop_segment].path, ec);
    if (!ec && size > stop_offset) {
      result.truncated_bytes += size - stop_offset;
      fs::resize_file(segments[stop_segment].path, stop_offset, ec);
      if (ec) {
        return util::make_error("wal.repair",
                                "cannot truncate torn tail of " +
                                    segments[stop_segment].path.string());
      }
    }
    for (std::size_t i = stop_segment + 1; i < segments.size(); ++i) {
      std::error_code rm;
      const auto orphan = fs::file_size(segments[i].path, rm);
      if (!rm) result.truncated_bytes += orphan;
      fs::remove(segments[i].path, rm);
    }
  }
  return result;
}

WriteAheadLog::WriteAheadLog(std::string dir, std::uint64_t next_seq,
                             WalOptions options)
    : dir_(std::move(dir)), options_(std::move(options)), next_seq_(next_seq) {
  durable_seq_ = written_seq_ = flushed_seq_ = next_seq - 1;
  if (options_.metrics != nullptr) {
    appends_ = &options_.metrics->counter("w5_wal_appends_total");
    append_bytes_ = &options_.metrics->counter("w5_wal_append_bytes_total");
    fsyncs_ = &options_.metrics->counter("w5_wal_fsyncs_total");
    rotations_ = &options_.metrics->counter("w5_wal_rotations_total");
    batch_entries_ = &options_.metrics->histogram(
        "w5_wal_batch_entries", {1, 2, 4, 8, 16, 32, 64, 128, 256});
    fsync_micros_ = &options_.metrics->histogram("w5_wal_fsync_micros");
  }
}

util::Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::open(
    const std::string& dir, std::uint64_t next_seq, WalOptions options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    return util::make_error("wal.open", "cannot create WAL dir '" + dir + "'");
  auto log = std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(dir, next_seq, std::move(options)));
  {
    const util::MutexLock lock(log->mutex_);
    if (auto status = log->open_segment_locked(next_seq); !status.ok())
      return status.error();
  }
  log->flusher_ = std::thread([raw = log.get()] { raw->flusher_main(); });
  return log;
}

WriteAheadLog::~WriteAheadLog() { close(); }

util::Status WriteAheadLog::open_segment_locked(std::uint64_t first_seq) {
  auto file = net::FaultyFile::create(
      (fs::path(dir_) / wal_segment_name(first_seq)).string(), options_.fault);
  if (!file.ok()) return file.error();
  file_ = std::move(file).value();
  segment_start_ = first_seq;
  segment_bytes_ = 0;
  return util::ok_status();
}

std::uint64_t WriteAheadLog::append(std::string payload) {
  if (payload.size() > kWalMaxPayloadBytes) {
    // An oversized frame would be written and acked, but replay treats
    // len > kWalMaxPayloadBytes as corruption and truncates there — losing
    // this frame and every committed frame after it. Refuse it up front
    // (this also guards the u32 length cast); the log stays healthy.
    util::log_error("wal: rejecting ", payload.size(),
                    "-byte append; frame limit is ", kWalMaxPayloadBytes);
    return 0;
  }
  std::uint64_t seq;
  {
    const util::MutexLock lock(mutex_);
    if (closing_ || failed_.load(std::memory_order_relaxed)) return 0;
    seq = next_seq_++;
    pending_.push_back({seq, std::move(payload)});
  }
  if (appends_ != nullptr) appends_->inc();
  pending_cv_.notify_one();
  return seq;
}

util::Status WriteAheadLog::wait_durable(std::uint64_t seq) {
  if (seq == 0) {
    const util::MutexLock lock(mutex_);
    if (failed_.load(std::memory_order_relaxed)) return fail_status_locked();
    return util::make_error(
        "wal.append", closing_ ? "log is closed" : "mutation was not logged");
  }
  if (options_.mode != DurabilityMode::kFsync) {
    // Weak modes ack immediately — unless the log is already known dead,
    // in which case nothing new will ever reach disk.
    if (!failed_.load(std::memory_order_acquire)) return util::ok_status();
    const util::MutexLock lock(mutex_);
    return fail_status_locked();
  }
  util::UniqueLock lock(mutex_);
  durable_cv_.wait(lock.native(), [&]() W5_REQUIRES(mutex_) {
    return durable_seq_ >= seq || closing_ ||
           failed_.load(std::memory_order_relaxed);
  });
  if (durable_seq_ >= seq) return util::ok_status();
  if (failed_.load(std::memory_order_relaxed)) return fail_status_locked();
  return util::make_error("wal.closed",
                          "log closed before seq " + std::to_string(seq) +
                              " became durable");
}

util::Status WriteAheadLog::flush() {
  util::UniqueLock lock(mutex_);
  if (failed_.load(std::memory_order_relaxed)) return fail_status_locked();
  if (!file_.valid() || closing_) return util::ok_status();
  const std::uint64_t target = next_seq_ - 1;
  ++flush_requests_;
  pending_cv_.notify_one();
  durable_cv_.wait(lock.native(), [&]() W5_REQUIRES(mutex_) {
    return flushed_seq_ >= target || closing_ ||
           failed_.load(std::memory_order_relaxed);
  });
  if (flushed_seq_ >= target) return util::ok_status();
  if (failed_.load(std::memory_order_relaxed)) return fail_status_locked();
  return util::ok_status();  // closing: close() drains the tail itself
}

std::uint64_t WriteAheadLog::rotate() {
  util::UniqueLock lock(mutex_);
  if (failed_.load(std::memory_order_relaxed)) return 0;
  const std::uint64_t boundary = next_seq_;
  if (closing_ || !file_.valid()) return boundary;
  rotate_at_ = boundary;
  pending_cv_.notify_one();
  durable_cv_.wait(lock.native(), [&]() W5_REQUIRES(mutex_) {
    return segment_start_ >= boundary || closing_ ||
           failed_.load(std::memory_order_relaxed);
  });
  // The new segment never opened (failed log, or closed mid-rotation):
  // the boundary is unproven, so the caller must not checkpoint on it.
  if (segment_start_ < boundary) return 0;
  return boundary;
}

util::Status WriteAheadLog::remove_segments_below(std::uint64_t seq) {
  for (const SegmentFile& segment : list_segments(dir_)) {
    bool current;
    {
      const util::MutexLock lock(mutex_);
      current = segment.first_seq >= segment_start_;
    }
    if (current || segment.first_seq >= seq) continue;
    std::error_code ec;
    fs::remove(segment.path, ec);
    if (ec) {
      return util::make_error("wal.gc",
                              "cannot remove " + segment.path.string());
    }
  }
  return util::ok_status();
}

std::uint64_t WriteAheadLog::last_appended_seq() const {
  const util::MutexLock lock(mutex_);
  return next_seq_ - 1;
}

std::uint64_t WriteAheadLog::durable_seq() const {
  const util::MutexLock lock(mutex_);
  return durable_seq_;
}

std::uint64_t WriteAheadLog::segment_bytes() const {
  const util::MutexLock lock(mutex_);
  return segment_bytes_;
}

std::uint64_t WriteAheadLog::segment_start() const {
  const util::MutexLock lock(mutex_);
  return segment_start_;
}

void WriteAheadLog::close() {
  {
    const util::MutexLock lock(mutex_);
    if (closing_) return;
    closing_ = true;
  }
  pending_cv_.notify_all();
  durable_cv_.notify_all();
  if (flusher_.joinable()) flusher_.join();
  file_.close();
}

void WriteAheadLog::fail_locked(std::string reason) {
  if (!failed_.load(std::memory_order_relaxed)) {
    fail_reason_ = std::move(reason);
    failed_.store(true, std::memory_order_release);
    util::log_error("wal: failed, refusing further appends: ", fail_reason_);
  }
  pending_cv_.notify_all();
  durable_cv_.notify_all();
}

util::Status WriteAheadLog::fail_status_locked() const {
  return util::make_error(
      "wal.failed",
      fail_reason_.empty() ? "write-ahead log failed" : fail_reason_);
}

void WriteAheadLog::flusher_main() {
  const auto interval =
      std::chrono::microseconds(std::max<util::Micros>(
          options_.flush_interval_micros, 1));
  util::UniqueLock lock(mutex_);
  for (;;) {
    const auto ready = [&]() W5_REQUIRES(mutex_) {
      return !pending_.empty() || closing_ || rotate_at_ != 0 ||
             flush_requests_ > flush_serviced_;
    };
    if (options_.mode == DurabilityMode::kInterval) {
      pending_cv_.wait_for(lock.native(), interval, ready);
    } else {
      pending_cv_.wait(lock.native(), ready);
    }
    if (failed_.load(std::memory_order_relaxed)) {
      // Poisoned: a torn frame may sit mid-segment, so writing anything
      // more would bury committed-looking frames behind it. Drop pending
      // work (its waiters were already woken with the failure) and keep
      // the flush/rotate handshakes from hanging.
      pending_.clear();
      flush_serviced_ = std::max(flush_serviced_, flush_requests_);
      rotate_at_ = 0;
      durable_cv_.notify_all();
      if (closing_) break;
      continue;
    }
    const bool draining = closing_;
    std::vector<Pending> batch = std::move(pending_);
    pending_.clear();
    const std::uint64_t rotate_boundary = rotate_at_;
    const std::uint64_t flush_req = flush_requests_;
    const bool force = flush_req > flush_serviced_ || draining;
    lock.unlock();

    // A rotation splits the batch: frames below the boundary complete the
    // old segment (fsynced in every mode but kNone — closed segments are
    // as durable as the mode promises), the rest open the new one.
    std::vector<Pending> tail;
    if (rotate_boundary != 0) {
      const auto split = std::partition_point(
          batch.begin(), batch.end(),
          [&](const Pending& p) { return p.seq < rotate_boundary; });
      tail.assign(std::make_move_iterator(split),
                  std::make_move_iterator(batch.end()));
      batch.erase(split, batch.end());
      write_batch(std::move(batch), /*force_fsync=*/true);
      if (!failed_.load(std::memory_order_relaxed)) {
        file_.close();
        lock.lock();
        const util::Status opened = open_segment_locked(rotate_boundary);
        if (!opened.ok()) {
          // rotate() is blocked on segment_start_ reaching the boundary,
          // which now never happens — fail so it (and every append since
          // the old segment closed) unblocks with an error instead of
          // hanging the checkpoint path forever.
          fail_locked("rotate: cannot open new segment: " +
                      opened.error().detail);
        } else if (rotations_ != nullptr) {
          rotations_->inc();
        }
        rotate_at_ = 0;
        lock.unlock();
      } else {
        lock.lock();
        rotate_at_ = 0;
        lock.unlock();
      }
      durable_cv_.notify_all();
      batch = std::move(tail);
      tail.clear();
    }
    if (!failed_.load(std::memory_order_relaxed) &&
        (!batch.empty() || force)) {
      write_batch(std::move(batch), force);
    }

    lock.lock();
    flush_serviced_ = std::max(flush_serviced_, flush_req);
    if (closing_ && pending_.empty() && rotate_at_ == 0) break;
  }
}

void WriteAheadLog::write_batch(std::vector<Pending> batch, bool force_fsync) {
  std::string buf;
  std::uint64_t last_seq = 0;
  for (const Pending& entry : batch) {
    wal_encode_frame(entry.seq, entry.payload, buf);
    last_seq = entry.seq;
  }
  util::Status io = util::ok_status();
  if (!buf.empty()) {
    io = file_.write_all(buf);
    if (io.ok()) {
      if (append_bytes_ != nullptr) append_bytes_->inc(buf.size());
      if (batch_entries_ != nullptr)
        batch_entries_->observe(static_cast<std::int64_t>(batch.size()));
    }
  }

  const bool sync_now =
      options_.mode == DurabilityMode::kFsync ||
      (options_.mode == DurabilityMode::kInterval &&
       (force_fsync || steady_micros() - last_fsync_micros_ >=
                           options_.flush_interval_micros));
  bool synced = false;
  if (io.ok() && sync_now && (force_fsync || !buf.empty())) {
    const util::Micros start = steady_micros();
    io = file_.sync();
    last_fsync_micros_ = steady_micros();
    if (io.ok()) {
      synced = true;
      if (fsyncs_ != nullptr) fsyncs_->inc();
      if (fsync_micros_ != nullptr)
        fsync_micros_->observe(last_fsync_micros_ - start);
    }
  }

  const util::MutexLock lock(mutex_);
  if (!io.ok()) {
    // A failed write may have torn a frame mid-segment (ENOSPC cuts the
    // batch anywhere); a failed fsync means the kernel promises nothing
    // about this batch. Either way no sequence in or after this batch may
    // be acked: poison the log — never advance durable/flushed over a
    // hole the next replay will truncate at.
    fail_locked(io.error().code + ": " + io.error().detail);
    return;
  }
  segment_bytes_ += buf.size();
  if (last_seq != 0) written_seq_ = std::max(written_seq_, last_seq);
  // kFsync promises "durable" only after the fsync lands; the weaker
  // modes promise only write ordering, so written == durable for them.
  if (options_.mode != DurabilityMode::kFsync || synced)
    durable_seq_ = std::max(durable_seq_, written_seq_);
  // flush() completion: everything appended before the flush call has
  // been written (and fsynced in the modes that fsync).
  if (options_.mode == DurabilityMode::kNone || synced)
    flushed_seq_ = std::max(flushed_seq_, written_seq_);
  durable_cv_.notify_all();
}

}  // namespace w5::store
