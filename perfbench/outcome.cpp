#include "outcome.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "verif/counterexample.hpp"

namespace perfbench {

Outcome outcomeOf(const icb::Fsm& fsm, const icb::EngineResult& result,
                  bool withAssists) {
  Outcome out;
  out.verdict = icb::verdictName(result.verdict);
  out.iterations = result.iterations;
  out.peakIterateNodes = result.peakIterateNodes;
  out.memberSizes = result.peakIterateMemberSizes;
  if (result.trace) {
    out.cexLength = result.trace->states.size();
    out.cexValid =
        icb::validateTrace(fsm, *result.trace, fsm.property(withAssists))
            .empty();
  }
  return out;
}

std::string formatGoldenLine(const std::string& cell, const Outcome& outcome) {
  std::ostringstream line;
  line << cell << ' ' << outcome.verdict << ' ' << outcome.iterations << ' '
       << outcome.peakIterateNodes << ' ';
  if (outcome.memberSizes.empty()) line << '-';
  for (std::size_t i = 0; i < outcome.memberSizes.size(); ++i) {
    line << (i == 0 ? "" : ",") << outcome.memberSizes[i];
  }
  if (outcome.cexLength) {
    line << ' ' << *outcome.cexLength << ' '
         << (outcome.cexValid ? "valid" : "invalid");
  } else {
    line << " - -";
  }
  return line.str();
}

namespace {

std::vector<std::uint64_t> parseMembers(const std::string& field) {
  std::vector<std::uint64_t> sizes;
  if (field == "-") return sizes;
  std::istringstream in(field);
  std::string item;
  while (std::getline(in, item, ',')) sizes.push_back(std::stoull(item));
  return sizes;
}

}  // namespace

Goldens parseGoldens(const std::string& text) {
  Goldens goldens;
  std::istringstream in(text);
  std::string raw;
  unsigned lineNo = 0;
  while (std::getline(in, raw)) {
    ++lineNo;
    if (raw.empty() || raw[0] == '#') continue;
    std::istringstream fields(raw);
    std::string cell, members, cexLength, cexValid;
    Outcome o;
    std::string extra;
    if (!(fields >> cell >> o.verdict >> o.iterations >> o.peakIterateNodes >>
          members >> cexLength >> cexValid) ||
        (fields >> extra) || (cexLength == "-") != (cexValid == "-") ||
        (cexValid != "-" && cexValid != "valid" && cexValid != "invalid")) {
      throw std::runtime_error("goldens line " + std::to_string(lineNo) +
                               ": malformed: " + raw);
    }
    try {
      o.memberSizes = parseMembers(members);
      if (cexLength != "-") o.cexLength = std::stoull(cexLength);
    } catch (const std::logic_error&) {
      throw std::runtime_error("goldens line " + std::to_string(lineNo) +
                               ": bad number: " + raw);
    }
    o.cexValid = cexValid == "valid";
    if (!goldens.emplace(cell, std::move(o)).second) {
      throw std::runtime_error("goldens line " + std::to_string(lineNo) +
                               ": duplicate cell " + cell);
    }
  }
  return goldens;
}

Goldens loadGoldens(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot read goldens file " + path);
  std::ostringstream text;
  text << file.rdbuf();
  return parseGoldens(text.str());
}

std::string checkOutcome(const Goldens& goldens, const std::string& cell,
                         const Outcome& actual) {
  const auto it = goldens.find(cell);
  if (it == goldens.end()) return "no golden for " + cell;
  if (actual == it->second) {
    // A golden recorded from a capped run would still be a failed cell.
    if (actual.verdict != "holds" && actual.verdict != "violated") {
      return cell + " hit a cap: " + actual.verdict;
    }
    return {};
  }
  return cell + " outcome '" + formatGoldenLine(cell, actual) +
         "' differs from golden '" + formatGoldenLine(cell, it->second) + "'";
}

}  // namespace perfbench
