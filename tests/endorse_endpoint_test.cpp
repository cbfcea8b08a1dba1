// §3.2 editors over HTTP: endorsement and adoption-weighted credit.
#include <gtest/gtest.h>

#include "apps/apps.h"
#include "core/gateway.h"
#include "core/provider.h"

namespace w5 {
namespace {

using net::Method;

TEST(EndorseEndpointTest, EndorsementBoostsSearchRank) {
  util::SimClock clock;
  platform::Provider provider(platform::ProviderConfig{}, clock);
  apps::register_standard_apps(provider);
  ASSERT_TRUE(provider.signup("editor-ed", "edpw").ok());
  const std::string ed = provider.login("editor-ed", "edpw").value();

  // Two equally-unknown modules; ed endorses one.
  const auto handler = [](platform::AppContext&) {
    return net::HttpResponse::text(200, "x");
  };
  for (const char* name : {"alpha", "beta"}) {
    platform::Module module;
    module.developer = "newdev";
    module.name = name;
    module.version = "1.0";
    module.manifest.description = "widget tool";
    module.handler = handler;
    ASSERT_TRUE(provider.modules().add(module).ok());
  }
  ASSERT_EQ(provider.http(Method::kPost, "/endorse",
                          "app=newdev/beta@1.0&confidence=0.9", ed).status,
            200);

  const auto hits = provider.http(Method::kGet, "/search?q=widget");
  ASSERT_EQ(hits.status, 200);
  EXPECT_LT(hits.body.find("newdev/beta@1.0"),
            hits.body.find("newdev/alpha@1.0"));
}

TEST(EndorseEndpointTest, Validation) {
  util::SimClock clock;
  platform::Provider provider(platform::ProviderConfig{}, clock);
  apps::register_standard_apps(provider);
  ASSERT_TRUE(provider.signup("ed", "edpw").ok());
  const std::string ed = provider.login("ed", "edpw").value();
  EXPECT_EQ(provider.http(Method::kPost, "/endorse",
                          "app=photoco/photos@1.0").status,
            401);
  EXPECT_EQ(provider.http(Method::kPost, "/endorse", "", ed).status, 400);
  EXPECT_EQ(provider.http(Method::kPost, "/endorse", "app=no/such", ed)
                .status,
            404);
  EXPECT_EQ(provider.http(Method::kPost, "/endorse",
                          "app=photoco/photos@1.0&confidence=2", ed).status,
            400);
  EXPECT_EQ(provider.http(Method::kPost, "/endorse",
                          "app=photoco/photos@1.0&confidence=0.5", ed)
                .status,
            200);
}

TEST(EndorseEndpointTest, AdoptionCreditsTheEndorsingEditor) {
  rank::EditorBoard board;
  board.endorse("early-bird", "m1", 1.0);
  board.endorse("latecomer", "m2", 1.0);
  // Weights are normalized to the leading editor, so both start at 1.0.
  EXPECT_DOUBLE_EQ(board.editor_weight("latecomer"), 1.0);
  // m1 gets adopted heavily: early-bird's picks prove out, and the
  // latecomer's *relative* weight falls.
  for (int i = 0; i < 100; ++i) {
    for (const auto& editor : board.endorsers_of("m1"))
      board.credit(editor, 0.01);
  }
  EXPECT_DOUBLE_EQ(board.editor_weight("early-bird"), 1.0);
  EXPECT_LT(board.editor_weight("latecomer"), 1.0);
  EXPECT_LT(board.editor_weight("latecomer"),
            board.editor_weight("early-bird"));
}

}  // namespace
}  // namespace w5
