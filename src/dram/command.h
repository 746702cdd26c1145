/**
 * @file
 * DRAM command vocabulary: the standard commands plus Pimba's five custom
 * PIM commands (paper Section 5.5).
 */

#ifndef PIMBA_DRAM_COMMAND_H
#define PIMBA_DRAM_COMMAND_H

#include <cstdint>
#include <string>

#include "core/units.h"

namespace pimba {

/** Commands the pseudo-channel controller can issue. */
enum class DramCommand
{
    // Standard commands.
    ACT,          ///< activate one row in one bank
    PRE,          ///< precharge one bank
    PREA,         ///< precharge all banks
    RD,           ///< column read
    WR,           ///< column write
    REF,          ///< all-bank refresh

    // Pimba custom commands (Section 5.5).
    ACT4,         ///< gang four activations (respects tFAW)
    REG_WRITE,    ///< load an operand register from the host (data bus)
    COMP,         ///< all-bank PIM computation on one column
    RESULT_READ,  ///< drain accumulator registers to the host (data bus)
    PRECHARGES,   ///< precharge all banks after a PIM pass
};

/** Human-readable command mnemonic. */
inline std::string
commandName(DramCommand cmd)
{
    switch (cmd) {
      case DramCommand::ACT: return "ACT";
      case DramCommand::PRE: return "PRE";
      case DramCommand::PREA: return "PREA";
      case DramCommand::RD: return "RD";
      case DramCommand::WR: return "WR";
      case DramCommand::REF: return "REF";
      case DramCommand::ACT4: return "ACT4";
      case DramCommand::REG_WRITE: return "REG_WRITE";
      case DramCommand::COMP: return "COMP";
      case DramCommand::RESULT_READ: return "RESULT_READ";
      case DramCommand::PRECHARGES: return "PRECHARGES";
    }
    return "?";
}

/** One issued command with its timestamp, for traces and tests. */
struct CommandRecord
{
    DramCommand cmd;
    Cycles cycle;
    int bank;      ///< first bank touched (-1 for all-bank commands)

    bool operator==(const CommandRecord &other) const = default;
};

} // namespace pimba

#endif // PIMBA_DRAM_COMMAND_H
