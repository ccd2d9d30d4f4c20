#pragma once
// Communicators: an ordered set of world ranks plus the runtime's matching
// state (posted receives, staged messages, collective gates).  The world
// communicator contains every rank; Simulation::splitWorld creates
// sub-communicators.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/collective_model.hpp"
#include "smpi/match_table.hpp"
#include "smpi/types.hpp"

namespace bgp::smpi {

class Simulation;

class Comm {
 public:
  int size() const { return static_cast<int>(members_.size()); }
  int id() const { return id_; }

  /// World rank of a communicator member.
  int worldRank(int commRank) const {
    BGP_REQUIRE_MSG(commRank >= 0 && commRank < size(),
                    "comm rank out of range");
    return members_[static_cast<std::size_t>(commRank)];
  }

  /// Rank within this communicator, or -1 if the world rank is no member.
  int commRankOf(int worldRank) const {
    if (worldRank < 0 ||
        worldRank >= static_cast<int>(worldToComm_.size()))
      return -1;
    return worldToComm_[static_cast<std::size_t>(worldRank)];
  }

  bool contains(int worldRank) const { return commRankOf(worldRank) >= 0; }

 private:
  friend class Simulation;
  friend class Verifier;  // gate signatures, finalize-time leak scans

  Comm(int id, std::vector<int> members, int worldSize);

  /// Counter-based collective gate: every member rank of collective #seq
  /// shares the single `op`; the last arrival schedules one completion
  /// callback, whose finish() resumes the members in arrival order — the
  /// same resume order, at the same simulated time, as the seed's
  /// one-OpState-per-rank fan-out, at 1/size the allocations and events.
  struct CollGate {
    CollSig sig;              // the opener's
    double firstBytes = 0.0;  // the opener's payload
    double bytes = 0.0;       // largest payload so far (the modeled size)
    int firstRank = -1;       // comm rank that opened the gate
    int arrived = 0;
    sim::SimTime lastArrival = 0.0;
    Request op;  // shared by every member
  };

  int id_;
  std::vector<int> members_;      // commRank -> worldRank
  std::vector<int> worldToComm_;  // worldRank -> commRank or -1
  MatchTable match_;              // posted receives + staged messages
  std::vector<std::uint64_t> nextCollSeq_;  // per comm rank
  std::unordered_map<std::uint64_t, CollGate> colls_;
};

}  // namespace bgp::smpi
