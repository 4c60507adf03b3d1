// The one command-line flag parser every lockin binary uses, plus the
// SIGINT/SIGTERM stop wiring the long-running tools share.
//
// Each flag is registered with the variable it sets, its bounds and a
// one-line help text, and the usage text is generated from those
// registrations. Parse() is strict: an unknown flag, a missing value, an
// out-of-range value or trailing garbage prints "prog: message" plus the
// usage to stderr and exits 2; --help prints the usage to stdout and exits
// 0. TryParse() is the same parse without exiting.
#ifndef SRC_PLATFORM_FLAGS_HPP_
#define SRC_PLATFORM_FLAGS_HPP_

#include <atomic>
#include <charconv>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace lockin {

class FlagParser {
 public:
  // `synopsis` follows the program name on the usage line.
  explicit FlagParser(std::string synopsis = "[options]") : synopsis_(std::move(synopsis)) {}

  // A switch: present sets *out to true.
  void Bool(const char* name, bool* out, const char* help);

  // A decimal integer in [min, max]; any integral T, full uint64 included.
  template <typename T>
  void Int(const char* name, T* out, T min, T max, const char* help) {
    static_assert(std::is_integral_v<T>);
    Add(name, "N", std::string(help) + " [" + std::to_string(min) + ".." + std::to_string(max) + "]",
        [=](std::string_view text) {
          T value{};
          if (!ParseWhole(text, &value) || value < min || value > max) {
            return false;
          }
          *out = value;
          return true;
        });
  }

  void Double(const char* name, double* out, double min, double max, const char* help);
  void String(const char* name, std::string* out, const char* metavar, const char* help);
  // One of `choices`, e.g. auto|model|off.
  void Choice(const char* name, std::string* out, std::vector<std::string> choices,
              const char* help);
  // A non-empty comma-separated list of integers in [min, max], e.g. 1,2,4,8.
  void IntList(const char* name, std::vector<int>* out, int min, int max, const char* help);

  // Parses argv[1..argc). Returns "" on success and the error message
  // otherwise. "--help" stops the parse and sets help_requested().
  std::string TryParse(int argc, const char* const* argv);
  bool help_requested() const { return help_requested_; }

  // TryParse, then exit 0 after --help and exit 2 (via Fail) on an error.
  void Parse(int argc, const char* const* argv);

  // Prints "prog: message" and the usage to stderr and exits 2. Also the
  // exit for checks across flags made after Parse.
  [[noreturn]] void Fail(const std::string& message) const;

  void PrintUsage(std::ostream& out) const;

 private:
  // Whole-string decimal parse: no sign on unsigned types, no whitespace,
  // no trailing text, nothing out of T's range.
  template <typename T>
  static bool ParseWhole(std::string_view text, T* value) {
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, *value);
    return ec == std::errc() && ptr == end && !text.empty();
  }

  struct Flag {
    std::string name;
    std::string metavar;  // empty for a switch
    std::string help;
    std::function<bool(std::string_view)> set;  // false: invalid value
  };

  void Add(const char* name, std::string metavar, std::string help,
           std::function<bool(std::string_view)> set);

  std::string synopsis_;
  std::string prog_ = "lockin";
  std::vector<Flag> flags_;
  bool help_requested_ = false;
};

// SIGINT/SIGTERM for long-running tools. The first signal only sets
// StopFlag() and records the signal, so the tool can flush partial results
// or drain; a second one calls _exit(128 + signal), so a hung run still
// ends.
void InstallStopSignalHandlers();
const std::atomic<bool>& StopFlag();
int StopSignal();  // the first signal received, 0 if none

}  // namespace lockin

#endif  // SRC_PLATFORM_FLAGS_HPP_
