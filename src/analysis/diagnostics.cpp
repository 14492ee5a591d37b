#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <tuple>

namespace duet {

namespace {
std::atomic<bool> g_verification_enabled{true};
}  // namespace

bool verification_enabled() {
  return g_verification_enabled.load(std::memory_order_relaxed);
}

void set_verification_enabled(bool enabled) {
  g_verification_enabled.store(enabled, std::memory_order_relaxed);
}

const char* severity_name(Diagnostic::Severity severity) {
  return severity == Diagnostic::Severity::kError ? "error" : "warning";
}

std::string Diagnostic::to_string() const {
  std::ostringstream os;
  os << severity_name(severity) << "[" << rule << "]";
  if (node != kInvalidNode) os << " node %" << node;
  if (subgraph >= 0) os << " subgraph #" << subgraph;
  if (location.step >= 0) os << " step " << location.step;
  if (!context.empty()) os << " (" << context << ")";
  if (!location.artifact.empty()) os << " [" << location.artifact << "]";
  os << ": " << message;
  return os.str();
}

void VerifyResult::error(std::string rule, NodeId node, std::string message) {
  add({Diagnostic::Severity::kError, std::move(rule), node, -1, {},
       std::move(message), {}});
}

void VerifyResult::error_sub(std::string rule, int subgraph, std::string message) {
  add({Diagnostic::Severity::kError, std::move(rule), kInvalidNode, subgraph, {},
       std::move(message), {}});
}

void VerifyResult::warning(std::string rule, NodeId node, std::string message) {
  add({Diagnostic::Severity::kWarning, std::move(rule), node, -1, {},
       std::move(message), {}});
}

void VerifyResult::merge(VerifyResult other) {
  for (Diagnostic& d : other.diagnostics_) diagnostics_.push_back(std::move(d));
}

void VerifyResult::attribute(const std::string& context) {
  for (Diagnostic& d : diagnostics_) {
    if (d.context.empty()) d.context = context;
  }
}

void VerifyResult::set_artifact(const std::string& artifact) {
  for (Diagnostic& d : diagnostics_) {
    if (d.location.artifact.empty()) d.location.artifact = artifact;
  }
}

void VerifyResult::sort() {
  const auto key = [](const Diagnostic& d) {
    return std::make_tuple(d.severity != Diagnostic::Severity::kError, d.rule,
                           d.location.artifact, d.subgraph, d.node,
                           d.location.step, d.message);
  };
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [&](const Diagnostic& a, const Diagnostic& b) {
                     return key(a) < key(b);
                   });
}

size_t VerifyResult::error_count() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == Diagnostic::Severity::kError) ++n;
  }
  return n;
}

bool VerifyResult::has_error(const std::string& rule) const {
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == Diagnostic::Severity::kError && d.rule == rule) return true;
  }
  return false;
}

std::string VerifyResult::to_string() const {
  std::ostringstream os;
  for (const Diagnostic& d : diagnostics_) os << "  " << d.to_string() << "\n";
  return os.str();
}

void VerifyResult::throw_if_failed(const std::string& what) const {
  if (ok()) return;
  std::ostringstream os;
  os << what << " (" << error_count() << " invariant violation"
     << (error_count() == 1 ? "" : "s") << "):\n"
     << to_string();
  throw VerifyError(os.str(), diagnostics_);
}

VerifyError::VerifyError(const std::string& what, std::vector<Diagnostic> diagnostics)
    : Error(what), diagnostics_(std::move(diagnostics)) {}

}  // namespace duet
