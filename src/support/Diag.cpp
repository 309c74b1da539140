//===- support/Diag.cpp - Structured diagnostics engine ----------------------==//

#include "support/Diag.h"

#include "support/Hash.h"
#include "support/Json.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>

using namespace mao;

const char *mao::diagCodeName(DiagCode Code) {
  switch (Code) {
  case DiagCode::None:
    return "none";
  case DiagCode::DriverUsage:
    return "driver-usage";
  case DiagCode::DriverFileError:
    return "driver-file-error";
  case DiagCode::ParseUnterminatedString:
    return "parse-unterminated-string";
  case DiagCode::ParseInjectedFault:
    return "parse-injected-fault";
  case DiagCode::ParseDuplicateLabel:
    return "parse-duplicate-label";
  case DiagCode::ParseLocalLabelUndefined:
    return "parse-local-label-undefined";
  case DiagCode::ParseLocalLabelDangling:
    return "parse-local-label-dangling";
  case DiagCode::PassUnknown:
    return "pass-unknown";
  case DiagCode::PassFailed:
    return "pass-failed";
  case DiagCode::PassException:
    return "pass-exception";
  case DiagCode::PassTimeout:
    return "pass-timeout";
  case DiagCode::PassRoundCap:
    return "pass-round-cap";
  case DiagCode::PassUnresolvedIndirect:
    return "pass-unresolved-indirect";
  case DiagCode::RelaxIterationLimit:
    return "relax-iteration-limit";
  case DiagCode::VerifyUnresolvedLabel:
    return "verify-unresolved-label";
  case DiagCode::VerifyDuplicateLabel:
    return "verify-duplicate-label";
  case DiagCode::VerifyBadStructure:
    return "verify-bad-structure";
  case DiagCode::VerifyEncodingFailed:
    return "verify-encoding-failed";
  case DiagCode::VerifyLayoutInconsistent:
    return "verify-layout-inconsistent";
  case DiagCode::VerifyRelaxationDiverged:
    return "verify-relaxation-diverged";
  case DiagCode::VerifyStaleView:
    return "verify-stale-view";
  case DiagCode::VerifyStaleCFG:
    return "verify-stale-cfg";
  case DiagCode::CheckSemanticDiverged:
    return "check-semantic-diverged";
  case DiagCode::LintUseBeforeDef:
    return "lint-use-before-def";
  case DiagCode::LintDeadFlagWrite:
    return "lint-dead-flag-write";
  case DiagCode::LintUnreachableBlock:
    return "lint-unreachable-block";
  case DiagCode::LintStackMisaligned:
    return "lint-stack-misaligned";
  case DiagCode::LintPartialRegStall:
    return "lint-partial-reg-stall";
  case DiagCode::LintFalseDependency:
    return "lint-false-dependency";
  case DiagCode::LintUnresolvedIndirect:
    return "lint-unresolved-indirect";
  case DiagCode::LintInternalError:
    return "lint-internal-error";
  case DiagCode::LintCalleeSavedClobbered:
    return "lint-callee-saved-clobbered";
  case DiagCode::LintUnbalancedStack:
    return "lint-unbalanced-stack";
  case DiagCode::LintRedZoneNonLeaf:
    return "lint-red-zone-nonleaf";
  case DiagCode::LintArgUndefinedAtCall:
    return "lint-arg-undefined";
  case DiagCode::LintDeadArgWrite:
    return "lint-dead-arg-write";
  }
  return "unknown";
}

uint64_t mao::diagFingerprint(DiagCode Code, const std::string &Message) {
  // The basis is one digit short of FNV's offset basis. Baseline files
  // store these fingerprints, so it stays.
  uint64_t H = fnv1a64(diagCodeName(Code), 1469598103934665603ull);
  H = fnv1a64(std::string_view("\0", 1), H);
  return fnv1a64(Message, H);
}

std::string mao::diagFingerprintHex(uint64_t Fingerprint) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Fingerprint));
  return Buf;
}

const char *mao::diagSeverityName(DiagSeverity Severity) {
  switch (Severity) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
    return "error";
  case DiagSeverity::Fatal:
    return "fatal";
  }
  return "unknown";
}

std::string Diagnostic::toString() const {
  std::string Out;
  if (Loc.valid()) {
    Out += Loc.File;
    if (Loc.Line != 0) {
      Out += ':';
      Out += std::to_string(Loc.Line);
    }
    Out += ": ";
  }
  Out += diagSeverityName(Severity);
  Out += ": ";
  Out += Message;
  if (Code != DiagCode::None) {
    Out += " [MAO-";
    Out += diagCodeName(Code);
    Out += ']';
  }
  if (!PassName.empty()) {
    Out += " (pass ";
    Out += PassName;
    Out += ')';
  }
  return Out;
}

DiagSink::~DiagSink() = default;

namespace {

const char *sarifLevel(DiagSeverity Severity) {
  switch (Severity) {
  case DiagSeverity::Note:
    return "note";
  case DiagSeverity::Warning:
    return "warning";
  case DiagSeverity::Error:
  case DiagSeverity::Fatal:
    return "error";
  }
  return "none";
}

} // namespace

std::string SarifDiagSink::render() const {
  // Collect the distinct rules actually used, preserving first-use order.
  std::vector<DiagCode> Rules;
  for (const Diagnostic &D : Diags)
    if (std::find(Rules.begin(), Rules.end(), D.Code) == Rules.end())
      Rules.push_back(D.Code);

  std::string Out;
  Out += "{\n"
         "  \"version\": \"2.1.0\",\n"
         "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
         "  \"runs\": [\n"
         "    {\n"
         "      \"tool\": {\n"
         "        \"driver\": {\n"
         "          \"name\": \"mao\",\n"
         "          \"informationUri\": \"https://github.com/mao\",\n"
         "          \"rules\": [\n";
  for (size_t I = 0; I < Rules.size(); ++I) {
    Out += "            {\"id\": \"MAO-";
    Out += diagCodeName(Rules[I]);
    Out += "\"}";
    Out += I + 1 < Rules.size() ? ",\n" : "\n";
  }
  Out += "          ]\n"
         "        }\n"
         "      },\n"
         "      \"results\": [\n";
  for (size_t I = 0; I < Diags.size(); ++I) {
    const Diagnostic &D = Diags[I];
    Out += "        {\n";
    Out += "          \"ruleId\": \"MAO-";
    Out += diagCodeName(D.Code);
    Out += "\",\n";
    Out += "          \"level\": \"";
    Out += sarifLevel(D.Severity);
    Out += "\",\n";
    Out += "          \"message\": {\"text\": \"";
    Out += jsonEscape(D.Message);
    Out += "\"},\n";
    Out += "          \"partialFingerprints\": {\"maoLint/v1\": \"";
    Out += diagFingerprintHex(diagFingerprint(D.Code, D.Message));
    Out += "\"}";
    if (!D.PassName.empty()) {
      Out += ",\n          \"properties\": {\"pass\": \"";
      Out += jsonEscape(D.PassName);
      Out += "\"}";
    }
    if (D.Loc.valid()) {
      Out += ",\n          \"locations\": [\n"
             "            {\n"
             "              \"physicalLocation\": {\n"
             "                \"artifactLocation\": {\"uri\": \"";
      Out += jsonEscape(D.Loc.File);
      Out += "\"}";
      if (D.Loc.Line != 0) {
        Out += ",\n                \"region\": {\"startLine\": ";
        Out += std::to_string(D.Loc.Line);
        Out += "}";
      }
      Out += "\n              }\n"
             "            }\n"
             "          ]";
    }
    Out += "\n        }";
    Out += I + 1 < Diags.size() ? ",\n" : "\n";
  }
  Out += "      ]\n"
         "    }\n"
         "  ]\n"
         "}\n";
  return Out;
}

void StderrDiagSink::handle(const Diagnostic &D) {
  // Shares the log lock with TraceContext so diagnostics and trace lines
  // from parallel shards never interleave mid-line.
  lockedLogWrite("mao: " + D.toString() + "\n");
}

void DiagEngine::report(Diagnostic D) {
  bool IsError =
      D.Severity == DiagSeverity::Error || D.Severity == DiagSeverity::Fatal;
  if (IsError) {
    if (errorLimitReached()) {
      ++NumErrors;
      if (!CapNoteEmitted) {
        CapNoteEmitted = true;
        Diagnostic Cap;
        Cap.Severity = DiagSeverity::Note;
        Cap.Message = "too many errors; suppressing further error output";
        for (DiagSink *Sink : Sinks)
          Sink->handle(Cap);
      }
      return;
    }
    ++NumErrors;
  } else if (D.Severity == DiagSeverity::Warning) {
    ++NumWarnings;
  }
  for (DiagSink *Sink : Sinks)
    Sink->handle(D);
}

void DiagEngine::error(DiagCode Code, std::string Message, SourceLoc Loc,
                       std::string PassName) {
  report({DiagSeverity::Error, Code, std::move(Loc), std::move(PassName),
          std::move(Message)});
}

void DiagEngine::warning(DiagCode Code, std::string Message, SourceLoc Loc,
                         std::string PassName) {
  report({DiagSeverity::Warning, Code, std::move(Loc), std::move(PassName),
          std::move(Message)});
}

void DiagEngine::note(DiagCode Code, std::string Message, SourceLoc Loc,
                      std::string PassName) {
  report({DiagSeverity::Note, Code, std::move(Loc), std::move(PassName),
          std::move(Message)});
}
