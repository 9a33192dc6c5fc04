// Binary serialization of WorldState for on-disk checkpoints.
//
// Encoding: a magic/version header, then every WorldState field in
// declaration order — trivially-copyable leaves as raw bytes with padding
// zeroed, vectors with a u64 length prefix, optionals with a u8 engaged
// prefix. The bytes are a function of the state alone: identical worlds
// write identical files. The format is
// deliberately NOT portable across builds: a checkpoint is only valid for
// the same binary, the same (ScenarioConfig, PolicySpec, seed) triple, and
// the same platform, which is exactly the restart/branching use case the
// lookahead subsystem needs. Telemetry is excluded (a restored-from-disk run
// re-records from the restore point); in-memory snapshots keep it.
//
// Errors (bad magic, unsupported version, truncated stream — a corrupt
// length word runs into its end — and trailing bytes) throw
// std::runtime_error with a description; decoding never reserves more
// elements than the stream has bytes left.
#pragma once

#include <iosfwd>
#include <string>

#include "lookahead/world_state.h"

namespace cloudprov {

void write_checkpoint(std::ostream& out, const WorldState& state);
WorldState read_checkpoint(std::istream& in);

/// File wrappers; throw std::runtime_error when the path cannot be opened.
void write_checkpoint_file(const std::string& path, const WorldState& state);
WorldState read_checkpoint_file(const std::string& path);

}  // namespace cloudprov
