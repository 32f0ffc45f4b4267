// Compiled Mongo-style match expressions.
//
// A tree-walking interpreter re-interprets the query for every record: each
// field re-splits its dot path, each operator is re-dispatched by string
// key, and get_or/substr allocate along the way. At N candidate records per
// query that interpretation dominates the read path (EXPERIMENTS "Server
// throughput"). CompiledQuery lowers the query ONCE into a flat program —
// prefix-ordered logic nodes over interned, pre-split paths and typed
// comparison opcodes with pre-extracted operands — whose evaluation does no
// parsing and no allocation per record.
//
// Contract: eval(doc) returns exactly what the reference interpreter
// (oracle::matches in tests/query_oracle.hpp) returns for every document
// (the differential test in tests/test_query_compile.cpp drives randomized
// documents and queries through both). The one deliberate difference is
// *when* malformed queries throw: the interpreter throws JsonError
// lazily, on the first record that reaches the bad operator, while
// compile() validates the whole query up front — so a mutation can never
// WAL-log a query that would poison replay.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/query/path.hpp"
#include "json/json.hpp"

namespace gptc::db::query {

class CompiledQuery {
 public:
  /// Lowers a match expression. Throws json::JsonError on the same
  /// malformed shapes the reference interpreter rejects (non-object query, unknown $op,
  /// non-array $and/$or/$in operand, non-bool $exists operand).
  static CompiledQuery compile(const json::Json& query);

  /// Runs the program over one document. Allocation-free.
  bool eval(const json::Json& document) const;

  /// One top-level conjunctive {path: condition} constraint — a direct
  /// field entry of the query or of any nested $and — in query iteration
  /// order. Every document matching the query satisfies every conjunct, so
  /// index candidates for any subset intersect to a superset of the match
  /// set: this is the planner's input. Pointers reference the retained
  /// query tree, which is never modified (stable addresses).
  struct Conjunct {
    const std::string* path = nullptr;       // dotted path (object key)
    const json::Json* condition = nullptr;   // bare scalar or operator object
  };
  const std::vector<Conjunct>& conjuncts() const { return conjuncts_; }

  // Move-only: OpInstr/Conjunct pointers reference this object's owned
  // query tree, which a copy would not share.
  CompiledQuery(CompiledQuery&&) = default;
  CompiledQuery& operator=(CompiledQuery&&) = default;
  CompiledQuery(const CompiledQuery&) = delete;
  CompiledQuery& operator=(const CompiledQuery&) = delete;

 private:
  CompiledQuery() = default;

  // Typed leaf opcodes. Range operators are specialized on the operand's
  // type at compile time so evaluation is a plain double/string compare:
  // the match engine orders only same-class number/string pairs, which
  // collapses every other operand type into a constant or a type test.
  enum class OpCode : std::uint8_t {
    BareEq,        // non-operator condition: value == operand
    Eq,            // {$eq: operand}
    Ne,            // {$ne: operand}
    In,            // {$in: [..]} — any element equals value
    Nin,           // {$nin: [..]} — no element equals value
    GtNum,         // value is number and value > num
    GtStr,         // value is string and value > *str
    GteNum,        // value is number and value >= num
    GteStr,        // value is string and value >= *str
    LtNum,         // value is number and value < num
    LtStr,         // value is string and value < *str
    LteNum,        // value is number and value <= num
    LteStr,        // value is string and value <= *str
    StrOnly,       // $gte/$lte with a non-number/string operand: the match
                   // engine accepts exactly "value is a string"
    Never,         // $gt/$lt with a non-number/string operand: unsatisfiable
    ExistsTrue,    // value present
    ExistsFalse,   // fails when the value is present (missing values are
                   // handled by FieldNode::missing_matches)
  };

  struct OpInstr {
    OpCode code;
    double num = 0.0;                        // *Num operand
    const std::string* str = nullptr;        // *Str operand
    const json::Json* operand = nullptr;     // equality/list operand
  };

  // Prefix-ordered logic tree. And/Or/Not children follow immediately;
  // `next` indexes one past the node's subtree so Or can short-circuit
  // without walking skipped children.
  struct Node {
    enum class Kind : std::uint8_t { And, Or, Not, Field };
    Kind kind;
    std::uint32_t count = 0;      // And/Or/Not: child count
    std::uint32_t next = 0;       // one past this subtree
    std::uint32_t path = 0;       // Field: index into paths_
    std::uint32_t first_op = 0;   // Field: index into ops_
    std::uint32_t op_count = 0;   // Field: ops in the condition
    bool missing_matches = false; // Field: a missing value still matches
                                  // (operator object carrying $exists:false)
  };

  std::uint32_t intern_path(const std::string& dotted);
  std::uint32_t compile_node(const json::Json& query, bool collect_conjuncts);
  void compile_field(const std::string& path, const json::Json& condition);
  bool eval_node(std::uint32_t at, const json::Json& document) const;
  bool eval_field(const Node& node, const json::Json& document) const;

  // The compiled query retains its own copy of the expression: operand
  // pointers reference nodes inside this tree (object and array heap
  // buffers, which are stable under move), so a CompiledQuery stays valid
  // after the caller's query goes away and after being moved itself.
  std::unique_ptr<json::Json> root_;
  std::vector<Node> nodes_;
  std::vector<OpInstr> ops_;
  std::vector<PathRef> paths_;
  std::vector<Conjunct> conjuncts_;
};

}  // namespace gptc::db::query
