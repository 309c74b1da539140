//===- support/Json.h - JSON string escaping --------------------*- C++ -*-===//
///
/// \file
/// The one JSON string escaper behind every JSON document the tools write:
/// SARIF diagnostics, the --mao-report run report, the Chrome trace-event
/// timeline and the tuner report.
///
//===----------------------------------------------------------------------===//

#ifndef MAO_SUPPORT_JSON_H
#define MAO_SUPPORT_JSON_H

#include <string>
#include <string_view>

namespace mao {

/// Escapes \p S for embedding in a JSON string literal: the quote, the
/// backslash, \n, \t and \r get their short escapes, every other control
/// character a \u00XX one.
std::string jsonEscape(std::string_view S);

} // namespace mao

#endif // MAO_SUPPORT_JSON_H
