#include "src/common/table.h"

#include <algorithm>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/units.h"

namespace monoutil {

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {
  MONO_CHECK(!headers_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  MONO_CHECK_MSG(cells.size() == headers_.size(), "row width must match header width");
  rows_.push_back(std::move(cells));
}

void TablePrinter::Print(std::ostream& out) const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out << (c == 0 ? "| " : " | ");
      out << row[c];
      out << std::string(widths[c] - row[c].size(), ' ');
    }
    out << " |\n";
  };
  print_row(headers_);
  for (size_t c = 0; c < headers_.size(); ++c) {
    out << (c == 0 ? "|" : "|") << std::string(widths[c] + 2, '-');
  }
  out << "|\n";
  for (const auto& row : rows_) {
    print_row(row);
  }
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string FormatSeconds(SimTime time) {
  const double seconds = time.seconds();
  char buf[64];
  if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.1f ms", seconds * 1e3);
  } else if (seconds < 180.0) {
    std::snprintf(buf, sizeof(buf), "%.1f s", seconds);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
  }
  return buf;
}

std::string FormatBytes(Bytes bytes) {
  const double value = static_cast<double>(bytes.count());
  char buf[64];
  const double kib = static_cast<double>(kKiB);
  const double mib = static_cast<double>(kMiB);
  const double gib = static_cast<double>(kGiB);
  if (value < kib) {
    std::snprintf(buf, sizeof(buf), "%.0f B", value);
  } else if (value < mib) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", value / kib);
  } else if (value < gib) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB", value / mib);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", value / gib);
  }
  return buf;
}

std::string FormatRate(BytesPerSecond rate) {
  const double value = rate.bps();
  char buf[64];
  const double kib = static_cast<double>(kKiB);
  const double mib = static_cast<double>(kMiB);
  const double gib = static_cast<double>(kGiB);
  if (value < kib) {
    std::snprintf(buf, sizeof(buf), "%.0f B/s", value);
  } else if (value < mib) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB/s", value / kib);
  } else if (value < gib) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB/s", value / mib);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f GiB/s", value / gib);
  }
  return buf;
}

}  // namespace monoutil
