#include "smpi/coll_algorithms.hpp"

#include "support/expect.hpp"

namespace bgp::smpi::algo {

namespace {

// Disjoint tag blocks per algorithm (rounds are offsets within a block).
constexpr int kTagBcast = 101000;
constexpr int kTagReduce = 102000;
constexpr int kTagRecDbl = 103000;
constexpr int kTagRabenseifner = 104000;
constexpr int kTagAllgather = 105000;
constexpr int kTagAlltoall = 106000;
constexpr int kTagBarrier = 107000;

bool isPow2(int v) { return v > 0 && (v & (v - 1)) == 0; }

/// Local reduction cost of combining a received vector: one flop and
/// three memory touches per 8-byte element.
arch::Work combineWork(double bytes) {
  return arch::Work{bytes / 8.0, 3.0 * bytes, 0.25};
}

int commRankOf(Rank& self, Comm& comm) {
  const int r = comm.commRankOf(self.id());
  BGP_REQUIRE_MSG(r >= 0, "rank is not a member of this communicator");
  return r;
}

}  // namespace

sim::Task bcastBinomial(Rank& self, Comm& comm, double bytes, int root) {
  const int p = comm.size();
  const int r = commRankOf(self, comm);
  BGP_REQUIRE(root >= 0 && root < p);
  const int vr = (r - root + p) % p;
  auto abs = [&](int relative) { return (relative + root) % p; };

  // Receive once from the ancestor owning our lowest set bit.
  int mask = 1;
  while (mask < p) {
    if (vr & mask) {
      co_await self.recv(comm, abs(vr - mask), kTagBcast + mask);
      break;
    }
    mask <<= 1;
  }
  // Forward down the remaining subtrees (MPICH's binomial schedule).
  mask >>= 1;
  while (mask > 0) {
    if (vr + mask < p) {
      co_await self.send(comm, abs(vr + mask), bytes, kTagBcast + mask);
    }
    mask >>= 1;
  }
}

sim::Task reduceBinomial(Rank& self, Comm& comm, double bytes, int root) {
  const int p = comm.size();
  const int r = commRankOf(self, comm);
  BGP_REQUIRE(root >= 0 && root < p);
  const int vr = (r - root + p) % p;
  auto abs = [&](int relative) { return (relative + root) % p; };

  int mask = 1;
  while (mask < p) {
    if ((vr & mask) == 0) {
      const int partner = vr | mask;
      if (partner < p) {
        co_await self.recv(comm, abs(partner), kTagReduce + mask);
        co_await self.compute(combineWork(bytes));
      }
    } else {
      co_await self.send(comm, abs(vr & ~mask), bytes, kTagReduce + mask);
      break;
    }
    mask <<= 1;
  }
}

sim::Task allreduceRecursiveDoubling(Rank& self, Comm& comm,
                                        double bytes) {
  const int p = comm.size();
  const int r = commRankOf(self, comm);
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rem = p - p2;

  // Fold the surplus ranks into the power-of-two core.
  int newRank;
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      co_await self.send(comm, r + 1, bytes, kTagRecDbl + 900);
      newRank = -1;  // parked until the result comes back
    } else {
      co_await self.recv(comm, r - 1, kTagRecDbl + 900);
      co_await self.compute(combineWork(bytes));
      newRank = r / 2;
    }
  } else {
    newRank = r - rem;
  }

  if (newRank >= 0) {
    auto realOf = [&](int nr) { return nr < rem ? nr * 2 + 1 : nr + rem; };
    for (int mask = 1; mask < p2; mask <<= 1) {
      const int partner = realOf(newRank ^ mask);
      co_await self.sendrecv(comm, partner, bytes, partner,
                             kTagRecDbl + mask, kTagRecDbl + mask);
      co_await self.compute(combineWork(bytes));
    }
  }

  // Return results to the parked even ranks.
  if (r < 2 * rem) {
    if (r % 2 == 0) {
      co_await self.recv(comm, r + 1, kTagRecDbl + 901);
    } else {
      co_await self.send(comm, r - 1, bytes, kTagRecDbl + 901);
    }
  }
}

sim::Task allreduceRabenseifner(Rank& self, Comm& comm, double bytes) {
  const int p = comm.size();
  BGP_REQUIRE_MSG(isPow2(p),
                  "Rabenseifner allreduce requires power-of-two ranks");
  const int r = commRankOf(self, comm);

  // Reduce-scatter by recursive halving: exchanged chunk halves each round.
  double chunk = bytes / 2.0;
  int round = 0;
  for (int mask = p / 2; mask >= 1; mask >>= 1) {
    const int partner = r ^ mask;
    co_await self.sendrecv(comm, partner, chunk, partner,
                           kTagRabenseifner + round,
                           kTagRabenseifner + round);
    co_await self.compute(combineWork(chunk));
    chunk /= 2.0;
    ++round;
  }
  // Allgather by recursive doubling: chunk doubles each round.
  chunk = bytes / p;
  for (int mask = 1; mask < p; mask <<= 1) {
    const int partner = r ^ mask;
    co_await self.sendrecv(comm, partner, chunk, partner,
                           kTagRabenseifner + 500 + round,
                           kTagRabenseifner + 500 + round);
    chunk *= 2.0;
    ++round;
  }
}

sim::Task allgatherRing(Rank& self, Comm& comm, double bytesPerRank) {
  const int p = comm.size();
  const int r = commRankOf(self, comm);
  const int next = (r + 1) % p;
  const int prev = (r + p - 1) % p;
  for (int step = 0; step < p - 1; ++step) {
    co_await self.sendrecv(comm, next, bytesPerRank, prev,
                           kTagAllgather + step, kTagAllgather + step);
  }
}

sim::Task alltoallPairwise(Rank& self, Comm& comm, double bytesPerPair) {
  const int p = comm.size();
  const int r = commRankOf(self, comm);
  for (int step = 1; step < p; ++step) {
    int sendTo, recvFrom;
    if (isPow2(p)) {
      sendTo = recvFrom = r ^ step;  // perfect pairing
    } else {
      sendTo = (r + step) % p;
      recvFrom = (r + p - step) % p;
    }
    co_await self.sendrecv(comm, sendTo, bytesPerPair, recvFrom,
                           kTagAlltoall + step, kTagAlltoall + step);
  }
}

sim::Task barrierDissemination(Rank& self, Comm& comm) {
  const int p = comm.size();
  const int r = commRankOf(self, comm);
  for (int mask = 1; mask < p; mask <<= 1) {
    const int to = (r + mask) % p;
    const int from = (r + p - mask) % p;
    co_await self.sendrecv(comm, to, 1.0, from, kTagBarrier + mask,
                           kTagBarrier + mask);
  }
}

}  // namespace bgp::smpi::algo
