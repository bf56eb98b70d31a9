// CompressedCursor: stream one rank's events straight off the CTT.
//
// The cursor is the library's one trace expander and lives with the
// decompressor in src/cypress (core::decompressRank() drains it into a
// vector). Consumers like SIM-MPI replay only ever look at each rank's
// *current* event, so they hold one cursor per rank instead of the
// expanded trace: O(#CST vertices + #records + tree depth) state per
// rank, never O(events).
#pragma once

#include "cypress/decompress.hpp"

namespace cypress::query {

using CompressedCursor = core::CompressedCursor;

}  // namespace cypress::query
