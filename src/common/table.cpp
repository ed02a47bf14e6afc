#include "common/table.h"

#include <algorithm>
#include <cstdio>

#include "common/env.h"

namespace s35 {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      if (c + 1 < row.size()) out.append(width[c] - row[c].size() + 2, ' ');
    }
    out += '\n';
  };

  std::string out;
  emit_row(header_, out);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c)
    total += width[c] + (c + 1 < width.size() ? 2 : 0);
  out.append(total, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row, out);
  return out;
}

std::string Table::to_csv() const {
  const auto emit = [](const std::vector<std::string>& row, std::string& out) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      const std::string& cell = row[c];
      const bool quote = cell.find_first_of(",\"\n") != std::string::npos;
      if (quote) {
        out += '"';
        for (char ch : cell) {
          if (ch == '"') out += '"';
          out += ch;
        }
        out += '"';
      } else {
        out += cell;
      }
      if (c + 1 < row.size()) out += ',';
    }
    out += '\n';
  };
  std::string out;
  emit(header_, out);
  for (const auto& row : rows_) emit(row, out);
  return out;
}

void Table::print() const {
  std::fputs(env_flag("S35_CSV") ? to_csv().c_str() : to_string().c_str(), stdout);
}

}  // namespace s35
