#include "db/csv.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/strings.h"

namespace uuq {

Result<std::vector<std::vector<std::string>>> ParseCsv(
    std::string_view text, std::vector<size_t>* row_lines) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;  // row has at least one field begun

  size_t i = 0;
  const size_t n = text.size();
  size_t line = 1;       // 1-based line under the cursor
  size_t row_line = 1;   // line the current row started on
  size_t quote_line = 1;  // line the open quoted field started on
  if (row_lines != nullptr) row_lines->clear();
  auto end_field = [&]() {
    row.push_back(std::move(field));
    field.clear();
  };
  auto end_row = [&]() {
    end_field();
    rows.push_back(std::move(row));
    if (row_lines != nullptr) row_lines->push_back(row_line);
    row.clear();
    field_started = false;
  };

  while (i < n) {
    const char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < n && text[i + 1] == '"') {
          field += '"';
          i += 2;
        } else {
          in_quotes = false;
          ++i;
        }
      } else {
        if (c == '\n') ++line;  // embedded newline: row keeps its start line
        field += c;
        ++i;
      }
      continue;
    }
    switch (c) {
      case '"':
        if (!field.empty()) {
          return Status::ParseError(
              "line " + std::to_string(line) +
              ": unexpected quote inside unquoted field (offset " +
              std::to_string(i) + ")");
        }
        in_quotes = true;
        quote_line = line;
        field_started = true;
        ++i;
        break;
      case ',':
        end_field();
        field_started = true;
        ++i;
        break;
      case '\r':
        // Swallow the CR of a CRLF; bare CR also ends the line.
        if (i + 1 < n && text[i + 1] == '\n') ++i;
        [[fallthrough]];
      case '\n':
        end_row();
        ++i;
        ++line;
        row_line = line;
        break;
      default:
        field += c;
        field_started = true;
        ++i;
        break;
    }
  }
  if (in_quotes) {
    return Status::ParseError(
        "unterminated quoted field starting on line " +
        std::to_string(quote_line) + " (truncated file?)");
  }
  // Flush a final row without trailing newline.
  if (field_started || !field.empty() || !row.empty()) {
    end_row();
  }
  return rows;
}

std::string CsvEscapeField(std::string_view field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

namespace {

bool ParsesAsDouble(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

}  // namespace

Result<std::vector<Observation>> ReadObservationsCsv(std::string_view text) {
  std::vector<size_t> row_lines;
  auto parsed = ParseCsv(text, &row_lines);
  if (!parsed.ok()) return parsed.status();
  const auto& rows = parsed.value();
  if (rows.empty()) {
    return Status::InvalidArgument("CSV needs a header row");
  }
  const auto& header = rows.front();
  int source_col = -1, entity_col = -1, value_col = -1;
  for (size_t j = 0; j < header.size(); ++j) {
    if (EqualsIgnoreCase(header[j], "source")) source_col = static_cast<int>(j);
    if (EqualsIgnoreCase(header[j], "entity")) entity_col = static_cast<int>(j);
    if (EqualsIgnoreCase(header[j], "value")) value_col = static_cast<int>(j);
  }
  if (source_col < 0 || entity_col < 0 || value_col < 0) {
    return Status::InvalidArgument(
        "observation CSV needs 'source', 'entity' and 'value' columns");
  }
  std::vector<Observation> out;
  out.reserve(rows.size() - 1);
  for (size_t r = 1; r < rows.size(); ++r) {
    const auto& row = rows[r];
    const std::string line = std::to_string(row_lines[r]);
    const size_t needed = static_cast<size_t>(
        std::max(source_col, std::max(entity_col, value_col)));
    if (row.size() <= needed) {
      return Status::ParseError(
          "line " + line + ": row has " + std::to_string(row.size()) +
          " fields but the value/source/entity columns need at least " +
          std::to_string(needed + 1) + " (truncated row?)");
    }
    double value = 0.0;
    if (!ParsesAsDouble(row[value_col], &value)) {
      return Status::ParseError("line " + line + ": value '" +
                                row[value_col] + "' is not numeric");
    }
    // inf/nan would poison φK, every f-statistic ratio, and the bucket
    // index's value sort — reject at the door instead.
    if (!std::isfinite(value)) {
      return Status::ParseError("line " + line + ": value '" +
                                row[value_col] +
                                "' is not finite; observation values must "
                                "be finite numbers");
    }
    if (row[source_col].empty()) {
      return Status::ParseError("line " + line + ": empty source id");
    }
    if (row[entity_col].empty()) {
      return Status::ParseError("line " + line + ": empty entity key");
    }
    out.push_back({row[source_col], row[entity_col], value, ""});
  }
  return out;
}

std::string WriteObservationsCsv(const std::vector<Observation>& stream) {
  std::string out = "source,entity,value\n";
  for (const Observation& obs : stream) {
    out += CsvEscapeField(obs.source_id);
    out += ',';
    out += CsvEscapeField(obs.entity_key);
    out += ',';
    out += FormatDouble(obs.value);
    out += '\n';
  }
  return out;
}

}  // namespace uuq
