// Tests of the SQL-like query language (paper Sec. II-B) and its
// integration with the shared repository.
#include "crowd/query_language.hpp"

#include <gtest/gtest.h>

#include "crowd/repo.hpp"
#include "db/document_store.hpp"
#include "query_oracle.hpp"

namespace gptc::crowd {
namespace {

using json::Json;

Json q(const char* text) { return parse_where_clause(text); }

bool hit(const char* doc, const char* where) {
  return db::oracle::matches(Json::parse(doc), q(where));
}

TEST(QueryLanguage, EmptyClauseMatchesEverything) {
  EXPECT_EQ(q(""), Json::object());
  EXPECT_EQ(q("   \t "), Json::object());
  EXPECT_TRUE(hit(R"({"a":1})", ""));
}

TEST(QueryLanguage, EqualityForms) {
  EXPECT_TRUE(hit(R"({"mb":4})", "mb = 4"));
  EXPECT_TRUE(hit(R"({"mb":4})", "mb == 4"));
  EXPECT_FALSE(hit(R"({"mb":5})", "mb = 4"));
  EXPECT_TRUE(hit(R"({"name":"Cori"})", "name = 'Cori'"));
  EXPECT_TRUE(hit(R"({"name":"Cori"})", R"(name = "Cori")"));
  EXPECT_TRUE(hit(R"({"flag":true})", "flag = TRUE"));
  EXPECT_TRUE(hit(R"({"x":null})", "x = null"));
}

TEST(QueryLanguage, Inequalities) {
  EXPECT_TRUE(hit(R"({"mb":4})", "mb != 5"));
  EXPECT_TRUE(hit(R"({"mb":4})", "mb <> 5"));
  EXPECT_TRUE(hit(R"({"mb":4})", "mb < 5"));
  EXPECT_TRUE(hit(R"({"mb":4})", "mb <= 4"));
  EXPECT_TRUE(hit(R"({"mb":4})", "mb > 3"));
  EXPECT_TRUE(hit(R"({"mb":4})", "mb >= 4"));
  EXPECT_FALSE(hit(R"({"mb":4})", "mb > 4"));
  EXPECT_TRUE(hit(R"({"t":2.5})", "t >= 2.5"));
  EXPECT_TRUE(hit(R"({"t":-3})", "t < -1"));
}

TEST(QueryLanguage, DottedPaths) {
  EXPECT_TRUE(hit(R"({"tuning_parameters":{"mb":8}})",
                  "tuning_parameters.mb >= 4"));
  EXPECT_FALSE(hit(R"({"tuning_parameters":{"mb":2}})",
                   "tuning_parameters.mb >= 4"));
}

TEST(QueryLanguage, AndOrNotPrecedence) {
  // AND binds tighter than OR.
  const char* doc = R"({"a":1,"b":2,"c":3})";
  EXPECT_TRUE(hit(doc, "a = 9 OR b = 2 AND c = 3"));
  EXPECT_FALSE(hit(doc, "a = 9 OR b = 2 AND c = 9"));
  EXPECT_TRUE(hit(doc, "(a = 9 OR b = 2) AND c = 3"));
  EXPECT_TRUE(hit(doc, "NOT a = 9"));
  EXPECT_FALSE(hit(doc, "NOT (a = 1 AND b = 2)"));
  EXPECT_TRUE(hit(doc, "NOT NOT a = 1"));
}

TEST(QueryLanguage, CaseInsensitiveKeywords) {
  const char* doc = R"({"a":1,"b":2})";
  EXPECT_TRUE(hit(doc, "a = 1 and b = 2"));
  EXPECT_TRUE(hit(doc, "a = 9 or b = 2"));
  EXPECT_TRUE(hit(doc, "not a = 9"));
}

TEST(QueryLanguage, InLists) {
  EXPECT_TRUE(hit(R"({"m":8000})", "m IN (6000, 8000, 10000)"));
  EXPECT_FALSE(hit(R"({"m":9000})", "m IN (6000, 8000, 10000)"));
  EXPECT_TRUE(hit(R"({"c":"MMD"})", "c IN ('NATURAL', 'MMD')"));
}

TEST(QueryLanguage, Exists) {
  EXPECT_TRUE(hit(R"({"tags":1})", "tags EXISTS"));
  EXPECT_FALSE(hit(R"({"x":1})", "tags EXISTS"));
  EXPECT_TRUE(hit(R"({"x":1})", "tags NOT EXISTS"));
  EXPECT_FALSE(hit(R"({"tags":1})", "tags NOT EXISTS"));
}

TEST(QueryLanguage, QuotedStringEscapes) {
  // SQL-style doubled-quote escape.
  EXPECT_TRUE(hit(R"({"s":"it's"})", "s = 'it''s'"));
  EXPECT_FALSE(hit(R"({"s":"its"})", "s = 'it''s'"));
  EXPECT_TRUE(hit(R"({"s":"a b"})", "s = 'a b'"));
  EXPECT_TRUE(hit(R"({"s":"say \"hi\""})", R"(s = "say ""hi""")"));
}

TEST(QueryLanguage, SyntaxErrors) {
  EXPECT_THROW(q("mb ="), QueryParseError);
  EXPECT_THROW(q("= 4"), QueryParseError);
  EXPECT_THROW(q("mb = 4 extra"), QueryParseError);
  EXPECT_THROW(q("(mb = 4"), QueryParseError);
  EXPECT_THROW(q("mb IN 4"), QueryParseError);
  EXPECT_THROW(q("mb IN (4"), QueryParseError);
  EXPECT_THROW(q("mb ! 4"), QueryParseError);
  EXPECT_THROW(q("mb = 'unterminated"), QueryParseError);
  EXPECT_THROW(q("mb NOT 4"), QueryParseError);
  EXPECT_THROW(q("mb = value"), QueryParseError);  // bare identifier value
  EXPECT_THROW(q("AND mb = 4"), QueryParseError);
}

TEST(QueryLanguage, ErrorsCarryPosition) {
  try {
    q("mb = 4 AND nb >");
    FAIL() << "expected QueryParseError";
  } catch (const QueryParseError& e) {
    EXPECT_NE(std::string(e.what()).find("position"), std::string::npos);
  }
}

TEST(QueryLanguage, RepoIntegration) {
  SharedRepo repo(9);
  const std::string key = repo.register_user("erin", "e@x.y");
  for (int mb = 1; mb <= 8; ++mb) {
    EvalUpload e;
    e.task_parameters = Json::parse(R"({"m":10000})");
    Json tuning = Json::object();
    tuning["mb"] = std::int64_t{mb};
    e.tuning_parameters = std::move(tuning);
    e.output = static_cast<double>(mb);
    Json mc = Json::object();
    mc["machine_name"] = mb % 2 == 0 ? "Cori" : "Summit";
    e.machine_configuration = std::move(mc);
    repo.upload_batch(key, "pdgeqrf", {e});
  }
  const AuthedUser user = repo.authenticate_user(key).value();
  const auto hits = repo.query_where(
      user, "pdgeqrf",
      "tuning_parameters.mb >= 3 AND "
      "machine_configuration.machine_name = 'Cori'");
  ASSERT_EQ(hits.size(), 3u);  // mb = 4, 6, 8
  for (const auto& r : hits)
    EXPECT_GE(r.at("tuning_parameters").at("mb").as_int(), 3);

  EXPECT_EQ(repo.query_where(user, "pdgeqrf",
                             "tuning_parameters.mb IN (1, 2)")
                .size(),
            2u);
  EXPECT_EQ(repo.query_where(user, "other", "").size(), 0u);
  EXPECT_FALSE(repo.authenticate_user("bad-key").has_value());
  EXPECT_THROW(repo.query_where(user, "pdgeqrf", "mb >"), QueryParseError);
}

TEST(QueryLanguage, RespectsAccessControl) {
  SharedRepo repo(10);
  const std::string alice = repo.register_user("alice", "a@x");
  const std::string bob = repo.register_user("bob", "b@x");
  EvalUpload priv;
  priv.task_parameters = Json::parse(R"({"m":1})");
  priv.tuning_parameters = Json::parse(R"({"mb":1})");
  priv.output = 1.0;
  priv.accessibility.level = Accessibility::Level::Private;
  repo.upload_batch(alice, "p", {priv});
  EXPECT_EQ(repo.query_where(repo.authenticate_user(alice).value(), "p", "")
                .size(),
            1u);
  EXPECT_EQ(
      repo.query_where(repo.authenticate_user(bob).value(), "p", "").size(),
      0u);
}

}  // namespace
}  // namespace gptc::crowd
