// Per-process DIFC state and the safe-label-change rule (Flume §3.1).
//
// A process's state is (S, I, O): secrecy label, integrity label, and the
// ownership/capability set. The single soundness-critical rule:
//
//     L → L' is safe  iff  (L' − L) ⊆ O.addable()  and  (L − L') ⊆ O.removable()
//
// i.e. every added tag needs t+ and every dropped tag needs t-.
#pragma once

#include <string>

#include "difc/capability.h"
#include "difc/label.h"
#include "util/result.h"

namespace w5::difc {

class LabelState {
 public:
  LabelState() = default;
  LabelState(Label secrecy, Label integrity, CapabilitySet owned)
      : secrecy_(std::move(secrecy)),
        integrity_(std::move(integrity)),
        owned_(std::move(owned)) {}

  const Label& secrecy() const noexcept { return secrecy_; }
  const Label& integrity() const noexcept { return integrity_; }
  const CapabilitySet& owned() const noexcept { return owned_; }
  CapabilitySet& owned() noexcept { return owned_; }

  // The safe-change predicate for an arbitrary label under this state's
  // ownership set.
  bool change_is_safe(const Label& from, const Label& to) const;

  // Attempts to replace the secrecy/integrity label; returns flow.denied
  // with a precise reason when unsafe.
  util::Status set_secrecy(const Label& to);
  util::Status set_integrity(const Label& to);

  // Raise-only convenience used by auto-raise reads: adds exactly the
  // tags in `tags` to S. Raising secrecy requires t+ for each new tag.
  util::Status raise_secrecy(const Label& tags);

  // Secrecy clearance: the highest S this process could legally reach,
  // S ∪ addable(O). Bounds what the store lets the process *see*
  // (DESIGN.md §3, covert-channel rule).
  Label secrecy_clearance() const;

  // Integrity floor: the lowest I this process could legally hold.
  Label integrity_floor() const;

  std::string to_string() const;

  friend bool operator==(const LabelState&, const LabelState&) = default;

 private:
  Label secrecy_;
  Label integrity_;
  CapabilitySet owned_;
};

}  // namespace w5::difc
