// CSV import/export (RFC-4180 style: quoted fields, embedded commas/quotes/
// newlines, CRLF tolerance).
//
// Observation streams "source,entity,value" load straight into the
// data-integration pipeline; ParseCsv and CsvEscapeField are the field-level
// layer underneath.
#ifndef UUQ_DB_CSV_H_
#define UUQ_DB_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "integration/source.h"

namespace uuq {

/// Splits CSV text into rows of raw string fields. Handles quoted fields
/// ("" as the quote escape), embedded separators and newlines, and both \n
/// and \r\n line endings. A trailing newline does not produce an empty row.
/// Parse errors name the 1-based line they occur on. When `row_lines` is
/// non-null it receives, per returned row, the 1-based line the row STARTS
/// on — quoted fields may span lines, so row index and line number diverge;
/// the higher-level readers use this map to report errors by source line.
Result<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view text, std::vector<size_t>* row_lines = nullptr);

/// Quotes a field if it contains the separator, quotes or newlines.
std::string CsvEscapeField(std::string_view field);

/// Parses an observation stream CSV with header "source,entity,value"
/// (column order free, extra columns ignored, case-insensitive names).
/// `value` must be FINITE numeric in every row (inf/nan would poison φK and
/// every estimator downstream); source and entity must be non-empty. Every
/// rejection names the offending 1-based source line and field content —
/// malformed rows, truncated trailing rows, and unterminated quotes all
/// come back as descriptive kParseError, never a crash or silent skip.
Result<std::vector<Observation>> ReadObservationsCsv(std::string_view text);

/// Serializes an observation stream with the canonical header.
std::string WriteObservationsCsv(const std::vector<Observation>& stream);

}  // namespace uuq

#endif  // UUQ_DB_CSV_H_
