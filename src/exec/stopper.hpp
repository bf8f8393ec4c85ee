// Cooperative, signal-safe stop flag for long batches.
//
// This is the repo's one point of contact with POSIX signals (lint rule
// `signals` bans signal handling everywhere else): entry points that run
// long sweeps — the CLI and the bench harness — call
// install_stop_handlers() once, and SIGINT/SIGTERM then latch a lock-free
// atomic flag instead of killing the process. The executor polls
// stop_requested() between repetitions, finishes the reps already in
// flight, and throws Interrupted; callers catch it, flush checkpoints and
// partial artifacts, and exit with the distinct code 3 (see the exit-code
// table in README.md).
//
// The library never installs handlers on its own: embedders who want
// default signal semantics keep them, and tests drive the same code path
// deterministically through request_stop() / clear_stop().
#pragma once

#include <stdexcept>

namespace synran::exec {

/// A batch was stopped between repetitions after a stop request. The
/// message reports how many reps had completed. Statistics already folded
/// are discarded by the throw; completed *cells* survive in the checkpoint
/// ledger, which is the resume unit.
class Interrupted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Routes SIGINT and SIGTERM to the stop flag. Idempotent; call from a
/// process entry point, never from library code.
void install_stop_handlers();

/// True once a stop was requested (signal, request_stop(), or
/// note_signal_stop()).
bool stop_requested() noexcept;

/// Latches the stop flag WITHOUT counting a signal. Embedders that stop a
/// batch for their own reasons — the serve daemon's per-request deadline
/// watchdog, deterministic tests — use this so they can tell their own
/// stop apart from an operator's SIGINT/SIGTERM via stop_signals().
void request_stop() noexcept;

/// Exactly what the signal handler does: latches the flag AND counts a
/// signal. The deterministic hook for testing the drain path without
/// raising a real signal.
void note_signal_stop() noexcept;

/// Signals observed (SIGINT/SIGTERM deliveries plus note_signal_stop()
/// calls) since process start or the last clear_stop(). The serve daemon
/// drains and exits when this is non-zero, but resumes serving after a
/// stop it requested itself (a deadline) when it is still zero.
int stop_signals() noexcept;

/// Clears the flag and the signal count so a later batch can run (tests;
/// a fresh process starts clear).
void clear_stop() noexcept;

}  // namespace synran::exec
