// The run-config grammar: the one place a batch description is validated,
// canonicalized and turned into factories.
//
// A batch arrives in one of two spellings — a synran-req/1 "config" object
// (`{"max_rounds":500}`) or `synran run` flags (`--max-rounds 500`). The
// flag form only renames keys (dashes for underscores) and parses numbers
// strictly; every default, cross-field rule and range check below applies
// to both. The result is the CANONICAL config: every field present, fixed
// key order, compact serialization — the bytes the serve cache key hashes.
// build_plan() then maps the canonical config onto protocol / adversary /
// scheduler / delay factories and a repeat spec through the same name
// tables the validator checks against. See EXPERIMENTS.md "synran-req/1".
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "async/benor.hpp"
#include "exec/async_batch.hpp"
#include "exec/batch.hpp"
#include "obs/json.hpp"

namespace synran {

/// A malformed run config: unknown keys or names, unparsable or
/// out-of-range values, conflicting fields. what() spells the offending key
/// the way the caller wrote it: "--max-rounds" or "config.max_rounds".
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// `synran run` flags by name, without the leading "--" ("max-rounds").
using FlagMap = std::map<std::string, std::string>;

/// Validates a synran-req/1 config object and returns its canonical form.
obs::JsonValue canonical_config(const obs::JsonValue& config);

/// Validates `synran run` flags and returns the same canonical form the
/// equivalent config object would produce. Unknown flags are rejected.
obs::JsonValue canonical_config(const FlagMap& flags);

/// Strict whole-string parses of a value spelled `key` in messages: no
/// signs, no trailing junk ("0x", "12a"), no overflow.
std::uint64_t parse_u64(const std::string& key, const std::string& text);
std::uint32_t parse_u32(const std::string& key, const std::string& text);

/// Which link-fault layer a sync plan carries (the config's "faults").
enum class FaultRegime : std::uint8_t { None, Omission, Byzantine };

/// One executable batch. Exactly one of the sync/async halves is live,
/// selected by `is_async`.
struct RunPlan {
  bool is_async = false;

  // Sync (is_async == false).
  std::unique_ptr<ProcessFactory> factory;
  AdversaryFactory adversaries;
  RepeatSpec spec;
  FaultRegime faults = FaultRegime::None;

  // Async (is_async == true).
  BenOrOptions benor;
  AsyncSchedulerFactory schedulers;
  AsyncDelayFactory delays;
  AsyncRepeatSpec aspec;
};

/// Builds the plan for a config object, normally the canonical form
/// canonical_config returned; it goes through the same validator, so a
/// terse config builds the same plan. `threads` is an execution resource,
/// never part of the config: batch statistics are thread-count invariant.
RunPlan build_plan(const obs::JsonValue& config, unsigned threads);

}  // namespace synran
