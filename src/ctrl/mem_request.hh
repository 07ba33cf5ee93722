/**
 * @file
 * Demand memory request and refresh request types exchanged between the
 * workload front-end, the memory controller and refresh policies.
 */

#pragma once

#include <cstdint>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace smartref {

/** A demand read or write arriving at the memory controller. */
struct MemRequest
{
    Addr addr = 0;
    bool write = false;
    Tick arrival = 0;
    std::uint64_t id = 0;
};

/**
 * Completion callback: invoked when the data burst finishes. Move-only;
 * captures of up to 24 bytes (the 3D cache's completion state) are held
 * inline, so a completion allocates nothing.
 */
using MemCallback =
    InlineFunction<void(const MemRequest &, Tick completion), 24>;

/** A refresh operation requested by a refresh policy. */
struct RefreshRequest
{
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;
    std::uint32_t row = 0;
    /**
     * CBR refreshes let the device's internal counter choose the row (no
     * address posted on the bus); RAS-only refreshes target (bank, row)
     * explicitly.
     */
    bool cbr = false;
    Tick created = 0;
};

} // namespace smartref
