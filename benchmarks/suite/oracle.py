"""The verify pass: every template against an independent answer.

Before any timing, each template of the workload runs once (the write
cycle several times) on a small graph from the same generator and seed,
and its rows are compared with the template's ``expect`` function: the
Section 6 reference engine (``repro.gpml.reference``) answers the
pattern part, and a plain-Python fold over the generator's own lists
does projections, aggregates and joins.  Writes are checked by reading
the graph back through its public accessors against a model kept here.
"""

from __future__ import annotations

from collections import Counter

from repro.gpml.reference import reference_match

from suite import gen
from suite.harness import canon, canon_row, run_op, setup_env, template_map
from suite.workloads import Workload, build_rounds, flatten, probe_schedule

#: write cycles the verify pass runs: one full period of the write mix
VERIFY_CYCLES = 8
#: rounds of a read-only schedule that together hold every template
VERIFY_ROUNDS = 4


class Oracle:
    """Independent answers over one small generated data set."""

    def __init__(self, data: gen.BankData, graph):
        self.data = data
        self.graph = graph
        self.props: dict[str, dict] = {}
        for a in data.accounts:
            self.props[a.id] = {"owner": a.owner, "isBlocked": a.blocked, "branch": a.branch}
        for t in data.transfers:
            self.props[t.id] = {"amount": t.amount, "date": t.date}
        for node_id, name in data.cities:
            self.props[node_id] = {"name": name}
        for node_id, number in data.phones:
            self.props[node_id] = {"number": number, "isBlocked": "no"}
        names = dict(data.cities)
        self._city = {a.id: names[a.city] for a in data.accounts}
        self._by_owner = {a.owner: a.id for a in data.accounts}
        #: (src, dst, amount) -> transfers the verified writes inserted
        self.inserted: Counter = Counter()
        self._ref_cache: dict = {}

    def ref(self, text: str) -> list[dict]:
        """Reference-engine binding rows of *text* as ``{variable: value}``."""
        key = (text, self.graph.version)
        if key not in self._ref_cache:
            self._ref_cache[key] = [
                {name: canon(value) for name, value in row.values.items()}
                for row in reference_match(self.graph, text).rows
            ]
        return self._ref_cache[key]

    def prop(self, element_id: str, name: str):
        """A property from the generator's data; the graph only for
        elements a verified write inserted."""
        known = self.props.get(element_id)
        if known is not None:
            return known[name]
        return canon(self.graph.property_of(element_id, name))

    def city_of(self, account_id: str) -> str:
        return self._city[account_id]

    def account_of(self, owner: str) -> str:
        return self._by_owner[owner]

    def check_size(self):
        nodes = self.data.num_nodes
        edges = self.data.num_edges + sum(self.inserted.values())
        if (self.graph.num_nodes, self.graph.num_edges) != (nodes, edges):
            return (
                f"graph has {self.graph.num_nodes} nodes / {self.graph.num_edges} "
                f"edges, the model {nodes} / {edges}"
            )
        return None


def _compare(template, rows, expected) -> str | None:
    got = [canon_row(row) for row in rows]
    want = [canon_row(row) for row in expected]
    if template.ordered:
        return None if got == want else f"ordered rows differ: {got[:3]} vs {want[:3]}"
    if template.prefix:
        short = min(template.limit, len(want))
        if len(got) != short:
            return f"{len(got)} rows, expected {short}"
        extra = Counter(got) - Counter(want)
        return f"rows outside the full answer: {list(extra)[:3]}" if extra else None
    if Counter(got) != Counter(want):
        missing = list((Counter(want) - Counter(got)).items())[:3]
        extra = list((Counter(got) - Counter(want)).items())[:3]
        return f"row bags differ: missing {missing}, unexpected {extra}"
    return None


def verify(workload: Workload, seed: int) -> list[str]:
    """Run every template on a small graph; returns the mismatches."""
    accounts = workload.verify_accounts
    data = gen.generate(seed, accounts, 2 * accounts)
    templates = template_map(workload)
    env = setup_env(workload, data)
    env.ensure_standing()
    oracle = Oracle(data, env.graph)
    if workload.sequential:
        rounds = build_rounds(workload, data, seed, VERIFY_CYCLES - workload.warmup_rounds)
        ops = flatten(rounds)
    else:
        # enough rounds to meet every template, each at most twice
        seen: Counter = Counter()
        ops = []
        for op in flatten(build_rounds(workload, data, seed, VERIFY_ROUNDS)):
            seen[op.template] += 1
            if seen[op.template] <= 2:
                ops.append(op)
        ops += probe_schedule(data, seed, VERIFY_CYCLES)
    failures = []
    for op in ops:
        template = templates[op.template]
        params = dict(op.params)
        try:
            rows, _, _ = run_op(env, template, op.text)
            if template.call == "write":
                problem = template.expect(oracle, params)
            elif template.call == "refresh":
                problem = _compare(template, env.standing.rows(), template.expect(oracle, params))
            else:
                problem = _compare(template, rows, template.expect(oracle, params))
        except Exception as error:
            problem = f"{type(error).__name__}: {error}"
        if problem:
            failures.append(f"verify {op.template}: {problem} | {op.text}")
    env.close()
    return failures
