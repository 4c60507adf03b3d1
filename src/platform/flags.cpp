#include "src/platform/flags.hpp"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace lockin {

void FlagParser::Add(const char* name, std::string metavar, std::string help,
                     std::function<bool(std::string_view)> set) {
  flags_.push_back({name, std::move(metavar), std::move(help), std::move(set)});
}

void FlagParser::Bool(const char* name, bool* out, const char* help) {
  Add(name, "", help, [out](std::string_view) {
    *out = true;
    return true;
  });
}

void FlagParser::Double(const char* name, double* out, double min, double max,
                        const char* help) {
  char range[64];
  std::snprintf(range, sizeof range, " [%g..%g]", min, max);
  Add(name, "X", help + std::string(range), [=](std::string_view text) {
    double value = 0;
    // The negated test also rejects NaN.
    if (!ParseWhole(text, &value) || !(value >= min && value <= max)) {
      return false;
    }
    *out = value;
    return true;
  });
}

void FlagParser::String(const char* name, std::string* out, const char* metavar,
                        const char* help) {
  Add(name, metavar, help, [out](std::string_view text) {
    *out = text;
    return true;
  });
}

void FlagParser::Choice(const char* name, std::string* out, std::vector<std::string> choices,
                        const char* help) {
  std::string metavar;
  for (const std::string& choice : choices) {
    metavar += (metavar.empty() ? "" : "|") + choice;
  }
  Add(name, metavar, help, [out, choices = std::move(choices)](std::string_view text) {
    for (const std::string& choice : choices) {
      if (choice == text) {
        *out = choice;
        return true;
      }
    }
    return false;
  });
}

void FlagParser::IntList(const char* name, std::vector<int>* out, int min, int max,
                         const char* help) {
  Add(name, "N,N,...",
      std::string(help) + " [" + std::to_string(min) + ".." + std::to_string(max) + "]",
      [=](std::string_view text) {
        std::vector<int> values;
        while (true) {
          const std::size_t comma = text.find(',');
          int value = 0;
          if (!ParseWhole(text.substr(0, comma), &value) || value < min || value > max) {
            return false;
          }
          values.push_back(value);
          if (comma == std::string_view::npos) {
            break;
          }
          text.remove_prefix(comma + 1);
        }
        *out = std::move(values);
        return true;
      });
}

std::string FlagParser::TryParse(int argc, const char* const* argv) {
  if (argc > 0) {
    prog_ = argv[0];
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help") {
      help_requested_ = true;
      return "";
    }
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags_) {
      if (candidate.name == arg) {
        flag = &candidate;
        break;
      }
    }
    if (flag == nullptr) {
      return "unrecognized argument: " + std::string(arg);
    }
    if (flag->metavar.empty()) {
      flag->set("");
      continue;
    }
    if (i + 1 >= argc) {
      return flag->name + " requires a value";
    }
    const char* value = argv[++i];
    if (!flag->set(value)) {
      return "invalid " + flag->name + " value: " + value;
    }
  }
  return "";
}

void FlagParser::Parse(int argc, const char* const* argv) {
  const std::string error = TryParse(argc, argv);
  if (!error.empty()) {
    Fail(error);
  }
  if (help_requested_) {
    PrintUsage(std::cout);
    std::exit(0);
  }
}

void FlagParser::Fail(const std::string& message) const {
  std::cerr << prog_ << ": " << message << "\n";
  PrintUsage(std::cerr);
  std::exit(2);
}

void FlagParser::PrintUsage(std::ostream& out) const {
  out << "usage: " << prog_ << " " << synopsis_ << "\n";
  const auto line = [&out](std::string left, const std::string& help) {
    left.resize(std::max<std::size_t>(left.size() + 2, 26), ' ');
    out << "  " << left << help << "\n";
  };
  for (const Flag& flag : flags_) {
    line(flag.metavar.empty() ? flag.name : flag.name + " " + flag.metavar, flag.help);
  }
  line("--help", "print this message");
}

namespace {

std::atomic<bool> g_stop{false};
std::atomic<int> g_signal{0};

// Async-signal-safe: lock-free atomics and _exit only.
void HandleStopSignal(int sig) {
  if (g_signal.exchange(sig, std::memory_order_relaxed) != 0) {
    _exit(128 + sig);
  }
  g_stop.store(true, std::memory_order_relaxed);
}

}  // namespace

void InstallStopSignalHandlers() {
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
}

const std::atomic<bool>& StopFlag() { return g_stop; }

int StopSignal() { return g_signal.load(std::memory_order_relaxed); }

}  // namespace lockin
