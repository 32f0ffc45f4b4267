// SQL-like query language for the shared repository (paper Sec. II-B:
// "a programmable interface that enables users to write an SQL-like query
// to retrieve relevant performance data").
//
// A WHERE-clause grammar compiled to the document store's Mongo-style
// match expressions:
//
//   tuning_parameters.mb >= 4 AND machine_configuration.machine_name = 'Cori'
//   task_parameters.m IN (8000, 10000) OR NOT (output.runtime < 2.0)
//
// Grammar (case-insensitive keywords):
//   condition  := or_expr
//   or_expr    := and_expr ( OR and_expr )*
//   and_expr   := unary ( AND unary )*
//   unary      := NOT unary | '(' condition ')' | comparison
//   comparison := field op value
//              |  field IN '(' value ( ',' value )* ')'
//              |  field EXISTS | field NOT EXISTS
//   op         := '=' | '==' | '!=' | '<>' | '<' | '<=' | '>' | '>='
//   field      := identifier ( '.' identifier )*
//   value      := number | 'single-quoted' | "double-quoted"
//              |  TRUE | FALSE | NULL
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

#include "json/json.hpp"

namespace gptc::crowd {

/// Thrown on syntax errors, with position information in the message.
class QueryParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Compiles a WHERE clause into a match expression accepted by
/// Collection::find. An empty (all-whitespace) clause compiles to the
/// match-everything query {}.
json::Json parse_where_clause(std::string_view text);

}  // namespace gptc::crowd
