#include <gtest/gtest.h>

#include "difc/capability.h"
#include "difc/codec.h"
#include "difc/flow.h"
#include "difc/label_state.h"
#include "difc/tag_registry.h"
#include "util/rng.h"

namespace w5::difc {
namespace {

Tag t(std::uint64_t id) { return Tag(id); }

TEST(CapabilitySetTest, BasicMembership) {
  CapabilitySet caps{plus(t(1)), minus(t(2))};
  EXPECT_TRUE(caps.has_plus(t(1)));
  EXPECT_FALSE(caps.has_minus(t(1)));
  EXPECT_TRUE(caps.has_minus(t(2)));
  EXPECT_FALSE(caps.has_dual(t(1)));
  caps.add_dual(t(3));
  EXPECT_TRUE(caps.has_dual(t(3)));
  caps.remove(plus(t(3)));
  EXPECT_FALSE(caps.has_dual(t(3)));
  EXPECT_TRUE(caps.has_minus(t(3)));
}

TEST(CapabilitySetTest, MergeAndCovers) {
  CapabilitySet a{plus(t(1))};
  const CapabilitySet b{plus(t(2)), minus(t(3))};
  a.merge(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.covers(Label{t(1), t(2)}, CapSign::kPlus));
  EXPECT_FALSE(a.covers(Label{t(1), t(3)}, CapSign::kPlus));
  EXPECT_TRUE(a.covers(Label{}, CapSign::kMinus));  // vacuous
}

TEST(CapabilitySetTest, AddableRemovable) {
  const CapabilitySet caps{plus(t(1)), plus(t(2)), minus(t(2))};
  EXPECT_EQ(caps.addable(), (Label{t(1), t(2)}));
  EXPECT_EQ(caps.removable(), Label{t(2)});
}

TEST(LabelStateTest, RaiseSecrecyRequiresPlus) {
  LabelState state({}, {}, CapabilitySet{plus(t(1))});
  EXPECT_TRUE(state.raise_secrecy(Label{t(1)}).ok());
  EXPECT_EQ(state.secrecy(), Label{t(1)});
  const auto denied = state.raise_secrecy(Label{t(2)});
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, "flow.denied");
  EXPECT_EQ(state.secrecy(), Label{t(1)});  // unchanged on failure
}

TEST(LabelStateTest, DropSecrecyRequiresMinus) {
  LabelState holder({t(1)}, {}, CapabilitySet{minus(t(1))});
  EXPECT_TRUE(holder.set_secrecy({}).ok());

  LabelState blocked({t(1)}, {}, CapabilitySet{plus(t(1))});
  EXPECT_FALSE(blocked.set_secrecy({}).ok());
}

TEST(LabelStateTest, IntegrityChangesUseSameRule) {
  // Self-endorsement (adding wp tag to I) needs t+; dropping needs t-.
  LabelState state({}, {}, CapabilitySet{plus(t(9))});
  EXPECT_TRUE(state.set_integrity(Label{t(9)}).ok());
  EXPECT_FALSE(state.set_integrity(Label{}).ok());  // no t9-
  state.owned().add(minus(t(9)));
  EXPECT_TRUE(state.set_integrity(Label{}).ok());
}

TEST(LabelStateTest, ClearanceAndFloor) {
  const LabelState state({t(1)}, {t(5), t(6)},
                         CapabilitySet{plus(t(2)), minus(t(5))});
  EXPECT_EQ(state.secrecy_clearance(), (Label{t(1), t(2)}));
  EXPECT_EQ(state.integrity_floor(), Label{t(6)});
}

TEST(FlowTest, MessageFlowRequiresSecrecySubsetAndIntegrityDominance) {
  const LabelState low({}, {}, {});
  const LabelState high({t(1)}, {}, {});
  EXPECT_TRUE(check_flow(low, high).ok());
  EXPECT_FALSE(check_flow(high, low).ok());

  const LabelState endorsed({}, {t(7)}, {});
  EXPECT_TRUE(check_flow(endorsed, low).ok());   // dropping integrity ok
  EXPECT_FALSE(check_flow(low, endorsed).ok());  // sink demands endorsement
}

TEST(FlowTest, ReadChecks) {
  const ObjectLabels secret{Label{t(1)}, {}};
  LabelState cleared({t(1)}, {}, {});
  EXPECT_TRUE(check_read(cleared, secret).ok());
  LabelState uncleared({}, {}, {});
  EXPECT_FALSE(check_read(uncleared, secret).ok());

  // Integrity: a process that *requires* endorsement t7 cannot read
  // unendorsed data.
  const ObjectLabels unendorsed{{}, {}};
  LabelState demanding({}, {t(7)}, {});
  EXPECT_FALSE(check_read(demanding, unendorsed).ok());
  const ObjectLabels endorsed_obj{{}, Label{t(7)}};
  EXPECT_TRUE(check_read(demanding, endorsed_obj).ok());
}

TEST(FlowTest, WriteChecks) {
  // Contaminated process cannot write to a public object (leak).
  LabelState contaminated({t(1)}, {}, {});
  const ObjectLabels public_obj{{}, {}};
  EXPECT_FALSE(check_write(contaminated, public_obj).ok());
  const ObjectLabels matching{Label{t(1)}, {}};
  EXPECT_TRUE(check_write(contaminated, matching).ok());

  // Write-protected object demands the writer carry wp tag in I.
  const ObjectLabels protected_obj{{}, Label{t(9)}};
  LabelState plain({}, {}, {});
  EXPECT_FALSE(check_write(plain, protected_obj).ok());
  LabelState endorsed({}, {t(9)}, {});
  EXPECT_TRUE(check_write(endorsed, protected_obj).ok());
}

TEST(FlowTest, ExportRequiresDeclassificationAuthority) {
  EXPECT_TRUE(check_export(Label{}, {}).ok());
  const auto denied = check_export(Label{t(1)}, {});
  EXPECT_FALSE(denied.ok());
  EXPECT_EQ(denied.error().code, "perimeter.denied");
  EXPECT_TRUE(check_export(Label{t(1)}, CapabilitySet{minus(t(1))}).ok());
  // Plus capability is NOT export authority.
  EXPECT_FALSE(check_export(Label{t(1)}, CapabilitySet{plus(t(1))}).ok());
}

TEST(FlowTest, JoinCombinesLabels) {
  const ObjectLabels a{Label{t(1)}, Label{t(5), t(6)}};
  const ObjectLabels b{Label{t(2)}, Label{t(6)}};
  const ObjectLabels j = join(a, b);
  EXPECT_EQ(j.secrecy, (Label{t(1), t(2)}));
  EXPECT_EQ(j.integrity, Label{t(6)});  // integrity meets (weakest)
}

TEST(TagRegistryTest, AllocatesDistinctValidTags) {
  TagRegistry registry;
  const Tag a = registry.create("sec(alice)", TagPurpose::kSecrecy, "alice");
  const Tag b = registry.create("wp(alice)", TagPurpose::kIntegrity, "alice");
  EXPECT_TRUE(a.valid());
  EXPECT_NE(a, b);
  EXPECT_EQ(registry.size(), 2u);
  ASSERT_NE(registry.find(a), nullptr);
  EXPECT_EQ(registry.find(a)->name, "sec(alice)");
  EXPECT_EQ(registry.find(a)->purpose, TagPurpose::kSecrecy);
  EXPECT_EQ(registry.describe(a), "sec(alice)");
  EXPECT_EQ(registry.describe(Tag(999)), "t999");
}

TEST(TagRegistryTest, JsonRoundTrip) {
  TagRegistry registry;
  registry.create("sec(bob)", TagPurpose::kSecrecy, "bob");
  registry.create("wp(bob)", TagPurpose::kIntegrity, "bob");
  registry.create("rp(bob)", TagPurpose::kReadProtect, "bob");

  auto restored = TagRegistry::from_json(registry.to_json());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().size(), 3u);
  EXPECT_EQ(restored.value().describe(Tag(1)), "sec(bob)");
  // Allocation continues after the persisted ids.
  const Tag next = restored.value().create("x", TagPurpose::kOther);
  EXPECT_EQ(next.id(), 4u);
}

TEST(TagRegistryTest, RejectsCorruptJson) {
  EXPECT_FALSE(TagRegistry::from_json(util::Json("nope")).ok());
  auto bad_id = util::Json::parse(
      R"({"next_id":2,"tags":[{"id":5,"name":"x","purpose":"other","owner":""}]})");
  ASSERT_TRUE(bad_id.ok());
  EXPECT_FALSE(TagRegistry::from_json(bad_id.value()).ok());
  auto bad_purpose = util::Json::parse(
      R"({"next_id":2,"tags":[{"id":1,"name":"x","purpose":"wat","owner":""}]})");
  ASSERT_TRUE(bad_purpose.ok());
  EXPECT_FALSE(TagRegistry::from_json(bad_purpose.value()).ok());
}

TEST(CodecTest, LabelRoundTrip) {
  const Label l{t(3), t(1), t(9)};
  auto parsed = label_from_json(label_to_json(l));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), l);
  EXPECT_FALSE(label_from_json(util::Json("x")).ok());
  EXPECT_FALSE(label_from_json(util::Json::array({0})).ok());
}

TEST(CodecTest, ObjectLabelsRoundTrip) {
  const ObjectLabels labels{Label{t(1)}, Label{t(2), t(3)}};
  auto parsed = object_labels_from_json(object_labels_to_json(labels));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), labels);
}

TEST(CodecTest, CapabilitySetRoundTrip) {
  const CapabilitySet caps{plus(t(1)), minus(t(1)), minus(t(7))};
  auto parsed = capability_set_from_json(capability_set_to_json(caps));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), caps);
  EXPECT_FALSE(capability_set_from_json(util::Json(1)).ok());
}

// ---- Property suite: soundness and completeness of the safe-change rule.
class SafeChangeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SafeChangeProperty, ChangeIsSafeIffCapabilitiesCoverDelta) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 500; ++round) {
    // Universe of 8 tags; random from/to labels and random capability set.
    std::vector<Tag> from_tags, to_tags;
    std::vector<Capability> caps;
    for (std::uint64_t id = 1; id <= 8; ++id) {
      if (rng.next_bool()) from_tags.push_back(t(id));
      if (rng.next_bool()) to_tags.push_back(t(id));
      if (rng.next_bool(0.4)) caps.push_back(plus(t(id)));
      if (rng.next_bool(0.4)) caps.push_back(minus(t(id)));
    }
    const Label from(from_tags), to(to_tags);
    const CapabilitySet owned(caps);
    const LabelState state(from, {}, owned);

    // Oracle: recompute from first principles.
    bool expect_safe = true;
    for (std::uint64_t id = 1; id <= 8; ++id) {
      const bool in_from = from.contains(t(id));
      const bool in_to = to.contains(t(id));
      if (!in_from && in_to && !owned.has_plus(t(id))) expect_safe = false;
      if (in_from && !in_to && !owned.has_minus(t(id))) expect_safe = false;
    }
    EXPECT_EQ(state.change_is_safe(from, to), expect_safe)
        << from.to_string() << " -> " << to.to_string() << " owned "
        << owned.to_string();
  }
}

TEST_P(SafeChangeProperty, DualPrivilegeAllowsEverything) {
  util::Rng rng(GetParam() * 977);
  CapabilitySet all;
  for (std::uint64_t id = 1; id <= 8; ++id) all.add_dual(t(id));
  for (int round = 0; round < 100; ++round) {
    std::vector<Tag> from_tags, to_tags;
    for (std::uint64_t id = 1; id <= 8; ++id) {
      if (rng.next_bool()) from_tags.push_back(t(id));
      if (rng.next_bool()) to_tags.push_back(t(id));
    }
    const LabelState state(Label(from_tags), {}, all);
    EXPECT_TRUE(state.change_is_safe(Label(from_tags), Label(to_tags)));
  }
}

TEST_P(SafeChangeProperty, NoCapabilitiesMeansLabelIsFrozen) {
  util::Rng rng(GetParam() + 5);
  for (int round = 0; round < 100; ++round) {
    std::vector<Tag> from_tags, to_tags;
    for (std::uint64_t id = 1; id <= 8; ++id) {
      if (rng.next_bool()) from_tags.push_back(t(id));
      if (rng.next_bool()) to_tags.push_back(t(id));
    }
    const Label from(from_tags), to(to_tags);
    const LabelState state(from, {}, {});
    EXPECT_EQ(state.change_is_safe(from, to), from == to);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafeChangeProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---- Property: flow transitivity — if a→b and b→c then a→c must hold
// (no laundering through an intermediate process without privilege).
class FlowTransitivity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTransitivity, NoPrivilegeFreeLaundering) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 300; ++round) {
    const auto random_state = [&] {
      std::vector<Tag> s, i;
      for (std::uint64_t id = 1; id <= 6; ++id) {
        if (rng.next_bool()) s.push_back(t(id));
        if (rng.next_bool(0.3)) i.push_back(t(id));
      }
      return LabelState(Label(s), Label(i), {});
    };
    const LabelState a = random_state(), b = random_state(),
                     c = random_state();
    if (check_flow(a, b).ok() && check_flow(b, c).ok()) {
      EXPECT_TRUE(check_flow(a, c).ok())
          << a.to_string() << " / " << b.to_string() << " / " << c.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTransitivity,
                         ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace w5::difc
