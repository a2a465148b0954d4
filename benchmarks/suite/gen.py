"""Seeded banking-graph generator: the suite's own input data.

The schema is the paper's Figure 1 (Account / City / Phone nodes,
Transfer / isLocatedIn / hasPhone edges).  The generator returns plain
Python data (:class:`BankData`) first and builds the property graph from
it through the public ``GraphBuilder`` second, so the correctness oracle
can fold over the very same lists the graph was built from.  It is
deliberately not ``repro.datasets``: an edit there must not change the
load this benchmark applies.

These properties are fixed by construction rather than left to chance,
because run-to-run comparisons draw a fresh seed per run and a metric
must not move with the draw:

* exactly one account in ten is blocked (a seeded sample of fixed size),
* the transfers are random *cycles*: the first runs through every
  account, so every account reaches every other; each further
  ``accounts`` transfers are one more cycle.  Every account therefore
  sends and receives exactly ``transfers // accounts`` transfers, and a
  bounded search visits the same number of paths from any source on any
  seed (measured with uniform random pairs instead: the median TRAIL
  {1,6} from a random source cost 10-15 ms depending on the seed),
* one account in a thousand (at least one) transfers to itself (a fixed
  point of the second cycle), so the self-loop probe always has rows.

Transfers beyond a whole number of cycles are uniform random pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

NUM_CITIES = 3
BLOCKED_ONE_IN = 10
SELF_LOOP_ONE_IN = 1000
#: accounts per ``branch`` value — the one property added to the paper's
#: schema, so a write can touch a fixed-size batch through an index lookup
BRANCH_SIZE = 20


@dataclass(frozen=True)
class Account:
    id: str
    owner: str
    blocked: str  # 'yes' | 'no'
    branch: int
    city: str  # node id
    phone: str  # node id


@dataclass(frozen=True)
class Transfer:
    id: str
    src: str
    dst: str
    amount: int
    date: str


@dataclass(frozen=True)
class BankData:
    name: str
    accounts: tuple[Account, ...]
    transfers: tuple[Transfer, ...]
    cities: tuple[tuple[str, str], ...]  # (node id, name)
    phones: tuple[tuple[str, int], ...]  # (node id, number)

    @property
    def num_nodes(self) -> int:
        return len(self.accounts) + len(self.cities) + len(self.phones)

    @property
    def num_edges(self) -> int:
        return 2 * len(self.accounts) + len(self.transfers)


def generate(seed: int, accounts: int, transfers: int) -> BankData:
    """The banking data for *seed* at the given size (pure, deterministic)."""
    if accounts < 2 * BRANCH_SIZE or transfers < 2 * accounts:
        raise ValueError(
            f"graph too small: need >= {2 * BRANCH_SIZE} accounts and "
            f"transfers >= 2 x accounts, got {accounts}/{transfers}"
        )
    rng = random.Random(f"bank:{seed}:{accounts}:{transfers}")
    cities = tuple((f"c{k}", f"city{k}") for k in range(NUM_CITIES))
    phones = tuple((f"p{k}", 100 + k) for k in range(accounts))
    blocked = set(rng.sample(range(accounts), accounts // BLOCKED_ONE_IN))
    account_rows = tuple(
        Account(
            id=f"a{i}",
            owner=f"owner{i}",
            blocked="yes" if i in blocked else "no",
            branch=i // BRANCH_SIZE,
            city=f"c{rng.randrange(NUM_CITIES)}",
            phone=f"p{rng.randrange(accounts)}",
        )
        for i in range(accounts)
    )
    loops = set(rng.sample(range(accounts), max(1, accounts // SELF_LOOP_ONE_IN)))
    pairs: list[tuple[int, int]] = []
    for cycle in range(transfers // accounts):
        fixed = loops if cycle == 1 else ()
        ring = [i for i in range(accounts) if i not in fixed]
        rng.shuffle(ring)
        pairs += [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
        pairs += [(i, i) for i in sorted(fixed)]
    pairs += [
        (rng.randrange(accounts), rng.randrange(accounts))
        for _ in range(transfers - len(pairs))
    ]
    rng.shuffle(pairs)
    transfer_rows = tuple(
        Transfer(
            id=f"t{k}",
            src=f"a{src}",
            dst=f"a{dst}",
            amount=rng.randrange(1, 20) * 1_000_000,
            date=f"{rng.randrange(1, 13)}/1/2020",
        )
        for k, (src, dst) in enumerate(pairs)
    )
    return BankData(
        name=f"bank_{accounts}x{transfers}_s{seed}",
        accounts=account_rows,
        transfers=transfer_rows,
        cities=cities,
        phones=phones,
    )


def build_graph(data: BankData):
    """Materialize *data* as a property graph through ``GraphBuilder``."""
    from repro.graph import GraphBuilder

    builder = GraphBuilder(data.name)
    for node_id, name in data.cities:
        builder.node(node_id, "City", "Country", name=name)
    for node_id, number in data.phones:
        builder.node(node_id, "Phone", number=number, isBlocked="no")
    for account in data.accounts:
        builder.node(
            account.id,
            "Account",
            owner=account.owner,
            isBlocked=account.blocked,
            branch=account.branch,
        )
    for index, account in enumerate(data.accounts):
        builder.directed(f"li{index}", account.id, account.city, "isLocatedIn")
        builder.undirected(f"hp{index}", account.id, account.phone, "hasPhone")
    for transfer in data.transfers:
        builder.directed(
            transfer.id,
            transfer.src,
            transfer.dst,
            "Transfer",
            amount=transfer.amount,
            date=transfer.date,
        )
    return builder.build()
