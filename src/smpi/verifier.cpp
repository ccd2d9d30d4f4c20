#include "smpi/verifier.hpp"

#include <ostream>
#include <sstream>

#include "smpi/comm.hpp"
#include "support/expect.hpp"

namespace bgp::smpi {

namespace {

std::string rankName(const Comm& comm, int commRank) {
  std::ostringstream os;
  os << "rank " << comm.worldRank(commRank);
  if (comm.id() != 0) os << " (comm " << comm.id() << " rank " << commRank << ")";
  return os.str();
}

std::string sourceName(const Comm& comm, int srcCommRank) {
  return srcCommRank == kAnySource ? std::string("ANY_SOURCE")
                                   : rankName(comm, srcCommRank);
}

std::string tagName(int tag) {
  return tag == kAnyTag ? std::string("ANY_TAG") : std::to_string(tag);
}

std::string describeCall(net::CollKind kind, int root, ReduceOp rop,
                         net::Dtype dt, double bytes) {
  std::ostringstream os;
  os << net::toString(kind) << "(bytes=" << bytes
     << ", elem=" << net::bytesOf(dt) << " B";
  if (root >= 0) os << ", root=" << root;
  if (rop != ReduceOp::None) os << ", op=" << toString(rop);
  os << ")";
  return os.str();
}

}  // namespace

Verifier::Verifier(VerifierOptions options) : options_(options) {}

void Verifier::defect(const std::string& msg) {
  defects_.push_back(msg);
  if (options_.failFast) throw VerifierError("verifier: " + msg);
}

void Verifier::onCollective(const Comm& comm, std::uint64_t seq, int commRank,
                            net::CollKind kind, int root, ReduceOp rop,
                            net::Dtype dt, double bytes) {
  ++activity_[comm.id()];
  if (!options_.checkCollectives) return;
  const auto key = std::make_pair(comm.id(), seq);
  auto [it, inserted] = gates_.try_emplace(
      key, CollSig{kind, root, rop, dt, bytes, commRank, 0});
  CollSig& sig = it->second;
  if (!inserted) {
    std::ostringstream os;
    os << "on comm " << comm.id() << ", collective #" << seq << ": "
       << rankName(comm, commRank) << " called "
       << describeCall(kind, root, rop, dt, bytes) << " but "
       << rankName(comm, sig.firstRank) << " called "
       << describeCall(sig.kind, sig.root, sig.rop, sig.dt, sig.bytes);
    const std::string where = os.str();
    if (sig.kind != kind) {
      defect("collective mismatch " + where);
    } else if (sig.root != root) {
      defect("collective root mismatch " + where);
    } else if (sig.rop != rop) {
      defect("collective reduce-op mismatch " + where);
    } else if (net::bytesOf(sig.dt) != net::bytesOf(dt)) {
      defect("collective element-size mismatch " + where);
    } else if (sig.bytes != bytes) {
      defect("collective count mismatch " + where);
    }
  }
  if (++sig.arrived == comm.size()) gates_.erase(it);
}

void Verifier::onP2p(const Request& op) {
  ++activity_[op->commId];
  if (options_.checkLeaks) tracked_.push_back(op);
}

void Verifier::onRecvMatched(const Comm& comm, int srcCommRank,
                             int dstCommRank, int tag, double expectedBytes,
                             double actualBytes) {
  if (!options_.checkP2p) return;
  if (expectedBytes < 0 || expectedBytes == actualBytes) return;
  std::ostringstream os;
  os << "p2p count mismatch: " << rankName(comm, dstCommRank)
     << " expected " << expectedBytes << " B (tag " << tagName(tag)
     << ") but " << rankName(comm, srcCommRank) << " sent " << actualBytes
     << " B";
  defect(os.str());
}

void Verifier::finalize(const std::vector<const Comm*>& comms) {
  if (!options_.checkLeaks) return;
  std::vector<std::string> leaks;

  for (const Comm* comm : comms) {
    // Both enumerations come back grouped by dst in FIFO order; merge them
    // into the per-destination staged-then-posted interleaving the leak
    // reports have always used.
    const auto staged = comm->match_.stagedLeaks();
    const auto posted = comm->match_.postedLeaks();
    std::size_t si = 0, pi = 0;
    for (int dst = 0; dst < comm->size(); ++dst) {
      for (; si < staged.size() && staged[si].dst == dst; ++si) {
        const auto& msg = staged[si];
        std::ostringstream os;
        os << "orphaned send: " << rankName(*comm, msg.src) << " sent "
           << msg.bytes << " B (tag " << msg.tag << ") to "
           << rankName(*comm, dst) << " but it was never received";
        leaks.push_back(os.str());
      }
      for (; pi < posted.size() && posted[pi].dst == dst; ++pi) {
        std::ostringstream os;
        os << "pending receive at finalize: " << rankName(*comm, dst)
           << " posted recv(src=" << sourceName(*comm, posted[pi].src)
           << ", tag=" << tagName(posted[pi].tag) << ") that never matched";
        leaks.push_back(os.str());
      }
    }
    // A sub-communicator nobody ever used is the simulator's analogue of
    // an unfreed communicator handle.
    if (comm->id() != 0 && activity_[comm->id()] == 0) {
      std::ostringstream os;
      os << "leaked communicator: comm " << comm->id() << " (size "
         << comm->size() << ") was created but never used";
      leaks.push_back(os.str());
    }
  }

  for (const Request& op : tracked_) {
    if (op->complete && !op->waited) {
      std::ostringstream os;
      os << "leaked request: rank " << op->ownerWorld << " " << op->what
         << "(peer=" << (op->peer == kAnySource ? std::string("ANY")
                                                : std::to_string(op->peer))
         << ", tag=" << tagName(op->tag) << ", comm " << op->commId
         << ") completed but was never waited on";
      leaks.push_back(os.str());
    }
  }

  if (leaks.empty()) return;
  for (const auto& l : leaks) defects_.push_back(l);
  if (options_.failFast) {
    std::ostringstream os;
    os << "verifier: " << leaks.size() << " leak(s) at finalize:";
    for (const auto& l : leaks) os << "\n  - " << l;
    throw VerifierError(os.str());
  }
}

void Verifier::report(std::ostream& os) const {
  if (defects_.empty()) {
    os << "verifier: no defects detected\n";
    return;
  }
  os << "verifier: " << defects_.size() << " defect(s):\n";
  for (const auto& d : defects_) os << "  - " << d << "\n";
}

}  // namespace bgp::smpi
