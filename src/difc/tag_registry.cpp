#include "difc/tag_registry.h"

#include <algorithm>
#include <mutex>

#include "util/log.h"

namespace w5::difc {

std::string to_string(TagPurpose purpose) {
  switch (purpose) {
    case TagPurpose::kSecrecy:
      return "secrecy";
    case TagPurpose::kIntegrity:
      return "integrity";
    case TagPurpose::kReadProtect:
      return "read-protect";
    case TagPurpose::kOther:
      return "other";
  }
  return "other";
}

std::optional<TagPurpose> tag_purpose_from_string(std::string_view s) {
  if (s == "secrecy") return TagPurpose::kSecrecy;
  if (s == "integrity") return TagPurpose::kIntegrity;
  if (s == "read-protect") return TagPurpose::kReadProtect;
  if (s == "other") return TagPurpose::kOther;
  return std::nullopt;
}

// Move operations lock *two* registries (or a foreign one during
// construction) — aliases the analysis cannot track, hence the opt-outs.
TagRegistry::TagRegistry(TagRegistry&& other) noexcept
    W5_NO_THREAD_SAFETY_ANALYSIS {
  // w5flow-allow(native): move-construct locks the *source* registry; the
  // destination is not yet visible to any thread, so no cycle is possible.
  std::unique_lock other_lock(other.mutex_.native());
  next_id_ = other.next_id_;
  info_ = std::move(other.info_);
}

TagRegistry& TagRegistry::operator=(TagRegistry&& other) noexcept
    W5_NO_THREAD_SAFETY_ANALYSIS {
  if (this != &other) {
    // w5flow-allow(native): scoped_lock's deadlock-avoiding two-lock
    // acquire over sibling registries; the witness cannot rank aliases.
    std::scoped_lock locks(mutex_.native(), other.mutex_.native());
    next_id_ = other.next_id_;
    info_ = std::move(other.info_);
  }
  return *this;
}

Tag TagRegistry::create(std::string name, TagPurpose purpose,
                        std::string owner) {
  Tag tag;
  std::uint64_t seq = 0;
  {
    util::WriteLock lock(mutex_);
    tag = Tag(next_id_++);
    info_[tag] = TagInfo{std::move(name), purpose, std::move(owner)};
    if (mutation_log_ != nullptr) {
      const TagInfo& info = info_[tag];
      util::Json op;
      op["op"] = "tag.create";
      op["id"] = tag.id();
      op["name"] = info.name;
      op["purpose"] = to_string(info.purpose);
      op["owner"] = info.owner;
      seq = mutation_log_->log(op);
    }
  }
  if (mutation_log_ != nullptr) {
    // create() cannot surface a Status; a failed WAL is already erroring
    // every store/fs write, so record the non-durable mint and move on.
    if (auto durable = mutation_log_->wait_durable(seq); !durable.ok())
      util::log_warn("tag registry: mint not durable: ",
                     durable.error().detail);
  }
  return tag;
}

util::Status TagRegistry::apply_wal(const util::Json& op) {
  if (op.at("op").as_string() != "tag.create")
    return util::make_error("wal.replay", "unknown tag op");
  const auto id = op.at("id").as_int(0);
  if (id <= 0) return util::make_error("wal.replay", "bad tag id");
  const auto purpose = tag_purpose_from_string(op.at("purpose").as_string());
  if (!purpose) return util::make_error("wal.replay", "unknown tag purpose");
  {
    util::WriteLock lock(mutex_);
    const Tag tag(static_cast<std::uint64_t>(id));
    info_[tag] = TagInfo{op.at("name").as_string(), *purpose,
                         op.at("owner").as_string()};
    next_id_ = std::max(next_id_, static_cast<std::uint64_t>(id) + 1);
  }
  return util::ok_status();
}

std::size_t TagRegistry::size() const {
  const util::ReadLock lock(mutex_);
  return info_.size();
}

std::vector<Tag> TagRegistry::all() const {
  const util::ReadLock lock(mutex_);
  std::vector<Tag> out;
  out.reserve(info_.size());
  for (const auto& [tag, info] : info_) out.push_back(tag);
  return out;
}

const TagInfo* TagRegistry::find(Tag tag) const {
  const util::ReadLock lock(mutex_);
  const auto it = info_.find(tag);
  return it == info_.end() ? nullptr : &it->second;
}

std::string TagRegistry::describe(Tag tag) const {
  if (const TagInfo* info = find(tag); info && !info->name.empty())
    return info->name;
  return to_string(tag);
}

util::Json TagRegistry::to_json() const {
  const util::ReadLock lock(mutex_);
  // Sort by id: unordered_map iteration order would make snapshot bytes
  // vary run to run, breaking checksum comparisons between snapshots of
  // identical state.
  std::vector<std::pair<Tag, const TagInfo*>> sorted;
  sorted.reserve(info_.size());
  for (const auto& [tag, info] : info_) sorted.emplace_back(tag, &info);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  util::Json tags = util::Json::array();
  for (const auto& [tag, info] : sorted) {
    util::Json entry;
    entry["id"] = tag.id();
    entry["name"] = info->name;
    entry["purpose"] = to_string(info->purpose);
    entry["owner"] = info->owner;
    tags.push_back(std::move(entry));
  }
  util::Json out;
  out["next_id"] = next_id_;
  out["tags"] = std::move(tags);
  return out;
}

util::Result<TagRegistry> TagRegistry::from_json(const util::Json& j) {
  TagRegistry registry;
  const auto next_id = j.at("next_id").as_int(-1);
  if (next_id < 1) return util::make_error("tag_registry.parse", "bad next_id");
  registry.next_id_ = static_cast<std::uint64_t>(next_id);
  for (const auto& entry : j.at("tags").as_array()) {
    const auto id = entry.at("id").as_int(0);
    if (id <= 0 || static_cast<std::uint64_t>(id) >= registry.next_id_) {
      return util::make_error("tag_registry.parse",
                              "tag id out of range: " + std::to_string(id));
    }
    const auto purpose =
        tag_purpose_from_string(entry.at("purpose").as_string());
    if (!purpose) {
      return util::make_error("tag_registry.parse", "unknown purpose");
    }
    registry.info_[Tag(static_cast<std::uint64_t>(id))] =
        TagInfo{entry.at("name").as_string(), *purpose,
                entry.at("owner").as_string()};
  }
  return registry;
}

}  // namespace w5::difc
