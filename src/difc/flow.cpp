#include "difc/flow.h"

namespace w5::difc {

bool can_flow(const Label& src_secrecy, const Label& src_integrity,
              const Label& dst_secrecy, const Label& dst_integrity) {
  return src_secrecy.subset_of(dst_secrecy) &&
         dst_integrity.subset_of(src_integrity);
}

util::Status check_flow(const LabelState& source, const LabelState& sink) {
  if (!source.secrecy().subset_of(sink.secrecy())) {
    return util::make_error(
        "flow.denied", "secrecy " + source.secrecy().to_string() +
                           " cannot flow to " + sink.secrecy().to_string());
  }
  if (!sink.integrity().subset_of(source.integrity())) {
    return util::make_error(
        "flow.denied",
        "sink integrity " + sink.integrity().to_string() +
            " not dominated by source " + source.integrity().to_string());
  }
  return util::ok_status();
}

util::Status check_read(const LabelState& process,
                        const ObjectLabels& object) {
  if (!object.secrecy.subset_of(process.secrecy())) {
    return util::make_error(
        "flow.denied", "read: object secrecy " + object.secrecy.to_string() +
                           " exceeds process " +
                           process.secrecy().to_string());
  }
  if (!process.integrity().subset_of(object.integrity)) {
    return util::make_error(
        "flow.denied",
        "read: object integrity " + object.integrity.to_string() +
            " below process requirement " + process.integrity().to_string());
  }
  return util::ok_status();
}

util::Status check_write(const LabelState& process,
                         const ObjectLabels& object) {
  if (!process.secrecy().subset_of(object.secrecy)) {
    return util::make_error(
        "flow.denied", "write: process secrecy " +
                           process.secrecy().to_string() +
                           " would leak into object labeled " +
                           object.secrecy.to_string());
  }
  if (!object.integrity.subset_of(process.integrity())) {
    return util::make_error(
        "flow.denied", "write: object requires integrity " +
                           object.integrity.to_string() +
                           " but process carries " +
                           process.integrity().to_string());
  }
  return util::ok_status();
}

util::Status check_export(const Label& data_secrecy,
                          const CapabilitySet& authority) {
  if (data_secrecy.empty()) return util::ok_status();  // nothing to leak
  // Residue emptiness is equivalent to data_secrecy ⊆ removable, an
  // allocation-free walk. The deny path re-materializes the residue so
  // the audit log names the blocking tags; denials are the rare case.
  const Label removable = authority.removable();
  if (data_secrecy.subset_of(removable)) return util::ok_status();
  const Label residue = data_secrecy.subtract(removable);
  return util::make_error(
      "perimeter.denied",
      "export blocked: no declassification authority for " +
          residue.to_string());
}

ObjectLabels join(const ObjectLabels& a, const ObjectLabels& b) {
  return ObjectLabels{a.secrecy.union_with(b.secrecy),
                      a.integrity.intersect_with(b.integrity)};
}

}  // namespace w5::difc
