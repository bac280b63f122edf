// Plain-text table and CSV emission for benchmark harnesses.
//
// Every bench binary prints the rows/series of one figure from the paper. TablePrinter
// renders an aligned text table to stdout (and optionally CSV) so output is directly
// comparable with the paper's plots.
#ifndef MONOTASKS_SRC_COMMON_TABLE_H_
#define MONOTASKS_SRC_COMMON_TABLE_H_

#include <ostream>
#include <string>
#include <vector>

#include "src/common/units.h"

namespace monoutil {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  // Adds one row; the number of cells must equal the number of headers.
  void AddRow(std::vector<std::string> cells);

  // Renders an aligned, pipe-separated table.
  void Print(std::ostream& out) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats `value` with `digits` places after the decimal point.
std::string FormatDouble(double value, int digits = 2);

// Formats a time with an adaptive unit (ms / s / min).
std::string FormatSeconds(SimTime time);

// Formats a byte count with an adaptive unit (B / KiB / MiB / GiB).
std::string FormatBytes(Bytes bytes);

// Formats a throughput with an adaptive unit (B/s / KiB/s / MiB/s / GiB/s).
std::string FormatRate(BytesPerSecond rate);

}  // namespace monoutil

#endif  // MONOTASKS_SRC_COMMON_TABLE_H_
