#include "src/simcore/audit.h"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/common/check.h"
#include "src/common/tracing/tracer.h"

namespace monosim {

SimAudit* SimAudit::current_ = nullptr;

void SimAudit::Report(monoutil::SimTime time, std::string source, std::string invariant,
                      std::string detail) {
  // Land the violation on the trace timeline where it occurred, so a broken
  // invariant can be eyeballed next to the spans that triggered it.
  if (monotrace::Tracer* tracer = monotrace::Tracer::current()) {
    tracer->Instant("audit", source, invariant, time.seconds(), detail);
  }
  violations_.push_back(
      AuditViolation{time, std::move(source), std::move(invariant), std::move(detail)});
}

void SimAudit::Expect(bool ok, monoutil::SimTime time, const char* source,
                      const char* invariant, const char* detail) {
  ++checks_;
  if (!ok) {
    Report(time, source, invariant, detail);
  }
}

std::string SimAudit::Summary() const {
  if (violations_.empty()) {
    std::ostringstream out;
    out << "audit clean (" << checks_ << " checks)";
    return out.str();
  }
  // Cap the listing: one broken invariant typically re-fires at every subsequent
  // boundary, and the first few occurrences carry all the signal.
  constexpr size_t kMaxListed = 10;
  std::ostringstream out;
  out << violations_.size() << " invariant violation(s) in " << checks_ << " checks:";
  for (size_t i = 0; i < violations_.size() && i < kMaxListed; ++i) {
    const AuditViolation& v = violations_[i];
    out << "\n  [t=" << v.time << "] " << v.source << ": " << v.invariant << " — "
        << v.detail;
  }
  if (violations_.size() > kMaxListed) {
    out << "\n  ... and " << (violations_.size() - kMaxListed) << " more";
  }
  return out.str();
}

ScopedAudit::ScopedAudit(Mode mode) : mode_(mode), previous_(SimAudit::current_) {
  SimAudit::current_ = &audit_;
}

ScopedAudit::~ScopedAudit() {
  SimAudit::current_ = previous_;
  if (mode_ == kFatal && !audit_.ok()) {
    std::fprintf(stderr, "SimAudit: %s\n", audit_.Summary().c_str());
    MONO_CHECK_MSG(audit_.ok(), "simulation invariant audit failed (see above)");
  }
}

bool AuditRequestedByEnv() {
  const char* value = std::getenv("MONO_SIM_AUDIT");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

EnvScopedAudit::EnvScopedAudit() {
  if (AuditRequestedByEnv()) {
    audit_.emplace(ScopedAudit::kFatal);
  }
}

}  // namespace monosim
