#include "smpi/verifier.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <tuple>

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

std::string describeCall(const CollSig& sig, double bytes) {
  std::ostringstream os;
  os << net::toString(sig.kind) << "(bytes=" << bytes
     << ", elem=" << net::bytesOf(sig.dt) << " B";
  if (sig.root >= 0) os << ", root=" << sig.root;
  if (sig.rop != ReduceOp::None) os << ", op=" << toString(sig.rop);
  os << ")";
  return os.str();
}

}  // namespace

Verifier::Verifier(VerifierOptions options) : options_(options) {}

void Verifier::defect(const std::string& msg) {
  defects_.push_back(msg);
  if (options_.failFast) throw VerifierError("verifier: " + msg);
}

void Verifier::onCollective(const Comm& comm, const Comm::CollGate& gate,
                            int commRank, const CollSig& sig, double bytes) {
  ++activity_[comm.id()];
  if (gate.arrived == 0) return;  // the opener: nothing to compare with
  const CollSig& ref = gate.sig;
  const char* what;
  if (ref.kind != sig.kind) {
    what = "collective mismatch";
  } else if (ref.root != sig.root) {
    what = "collective root mismatch";
  } else if (ref.rop != sig.rop) {
    what = "collective reduce-op mismatch";
  } else if (net::bytesOf(ref.dt) != net::bytesOf(sig.dt)) {
    what = "collective element-size mismatch";
  } else if (gate.firstBytes != bytes) {
    what = "collective count mismatch";
  } else {
    return;
  }
  std::ostringstream os;
  os << what << " on comm " << comm.id() << ", collective #"
     << gate.op->collSeq << ": " << rankName(comm, commRank) << " called "
     << describeCall(sig, bytes) << " but " << rankName(comm, gate.firstRank)
     << " called " << describeCall(ref, gate.firstBytes);
  defect(os.str());
}

void Verifier::onP2p(const OpState& op) {
  ++activity_[op.commId];
  std::uint32_t idx = freeReq_;
  if (idx != kNil) {
    freeReq_ = reqs_[idx].next;
  } else {
    idx = static_cast<std::uint32_t>(reqs_.size());
    reqs_.emplace_back();
  }
  reqs_[idx] = OpenReq{op.id, op.peer, op.tag,
                       static_cast<std::uint32_t>(op.commId),
                       op.kind == OpState::Kind::Send, kNil};
  const auto owner = static_cast<std::size_t>(op.ownerWorld);
  if (owner >= owners_.size()) owners_.resize(owner + 1);
  OwnerList& list = owners_[owner];
  if (list.tail == kNil) {
    list.head = idx;
  } else {
    reqs_[list.tail].next = idx;
  }
  list.tail = idx;
}

void Verifier::closeReq(const OpState& op) {
  const auto owner = static_cast<std::size_t>(op.ownerWorld);
  if (owner >= owners_.size()) return;
  OwnerList& list = owners_[owner];
  for (std::uint32_t prev = kNil, i = list.head; i != kNil;
       prev = i, i = reqs_[i].next) {
    if (reqs_[i].id != op.id) continue;
    const std::uint32_t next = reqs_[i].next;
    if (prev == kNil) {
      list.head = next;
    } else {
      reqs_[prev].next = next;
    }
    if (list.tail == i) list.tail = prev;
    reqs_[i].next = freeReq_;
    freeReq_ = i;
    return;
  }
}

void Verifier::onWaitDone(const std::vector<Request>& ops,
                          std::size_t fired) {
  if (fired < ops.size()) {
    closeReq(*ops[fired]);
  } else {
    for (const Request& op : ops) closeReq(*op);
  }
}

void Verifier::onRecvMatched(const Comm& comm, int srcCommRank,
                             int dstCommRank, int tag, double expectedBytes,
                             double actualBytes) {
  if (expectedBytes < 0 || expectedBytes == actualBytes) return;
  std::ostringstream os;
  os << "p2p count mismatch: " << rankName(comm, dstCommRank)
     << " expected " << expectedBytes << " B (tag " << tagName(tag)
     << ") but " << rankName(comm, srcCommRank) << " sent " << actualBytes
     << " B";
  defect(os.str());
}

void Verifier::finalize(const std::vector<const Comm*>& comms) {
  std::vector<std::string> leaks;
  // Ops still queued in a match table have not completed: they are
  // reported as orphaned sends / pending receives, not as leaked requests.
  std::vector<std::uint64_t> queued;

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
        queued.push_back(msg.op);
        std::ostringstream os;
        os << "orphaned send: " << rankName(*comm, msg.src) << " sent "
           << msg.bytes << " B (tag " << msg.tag << ") to "
           << rankName(*comm, dst) << " but it was never received";
        leaks.push_back(os.str());
      }
      for (; pi < posted.size() && posted[pi].dst == dst; ++pi) {
        queued.push_back(posted[pi].op);
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

  // Every other unwaited request completed; report them in op-id order.
  std::sort(queued.begin(), queued.end());
  std::vector<std::tuple<std::uint64_t, int, std::uint32_t>> open;
  for (std::size_t owner = 0; owner < owners_.size(); ++owner)
    for (std::uint32_t i = owners_[owner].head; i != kNil; i = reqs_[i].next)
      if (!std::binary_search(queued.begin(), queued.end(), reqs_[i].id))
        open.emplace_back(reqs_[i].id, static_cast<int>(owner), i);
  std::sort(open.begin(), open.end());
  for (const auto& [id, owner, i] : open) {
    const OpenReq& r = reqs_[i];
    std::ostringstream os;
    os << "leaked request: rank " << owner << " "
       << (r.isSend ? "send" : "recv") << "(peer="
       << (r.peer == kAnySource ? std::string("ANY") : std::to_string(r.peer))
       << ", tag=" << tagName(r.tag) << ", comm " << r.commId
       << ") completed but was never waited on";
    leaks.push_back(os.str());
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
