// JSON scalar formatting shared by the trace, profile and manifest writers.
#pragma once

#include <string>

namespace cloudprov {

/// Plain JSON number with round-trip precision (17 digits); JSON has no
/// inf/nan, so non-finite values (which no instrumented site should
/// produce) become 0.
std::string json_number(double value);

/// Quoted JSON string: quote, backslash and control characters escaped.
std::string json_string(const std::string& text);

}  // namespace cloudprov
