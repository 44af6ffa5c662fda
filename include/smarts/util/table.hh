/**
 * @file
 * TextTable: the tabular output helper all benches share. Rows are
 * built by chaining add() calls after row(); the table renders as an
 * aligned text block for stdout and as a CSV artifact for the
 * experiment drivers.
 */

#ifndef SMARTS_UTIL_TABLE_HH
#define SMARTS_UTIL_TABLE_HH

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace smarts {

class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    /** Start a new row; subsequent add() calls fill it. */
    TextTable &
    row()
    {
        rows_.emplace_back();
        return *this;
    }

    TextTable &
    add(const std::string &cell)
    {
        cellText(cell);
        return *this;
    }

    TextTable &
    add(const char *cell)
    {
        cellText(cell);
        return *this;
    }

    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    TextTable &
    add(T value)
    {
        cellText(std::to_string(value));
        return *this;
    }

    /** Fixed-precision floating-point cell. */
    TextTable &add(double value, int precision);

    /** Fraction rendered as a signed percentage, e.g. 0.0123 -> 1.23%. */
    TextTable &addPercent(double fraction, int precision);

    /** Aligned text rendering (header, rule, rows). */
    std::string toString() const;

    /** Write header + rows as CSV. Fatal on I/O failure. */
    void writeCsv(const std::string &path) const;

  private:
    void cellText(std::string text);

    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace smarts

#endif // SMARTS_UTIL_TABLE_HH
