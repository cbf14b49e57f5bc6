"""The four benchmark workloads and their output checks.

Each workload is one pass over a fixed list of items, run by one client in
one process (a closed loop: the next item starts when the previous one is
done). ``inputs`` builds what the program receives from the workload seed,
``run`` is the timed pass, and ``check`` turns its output into a ``Pass``:
items attempted, items failed, and a digest of the seed-independent part of
the output, which ``reference.json`` pins.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ginshift.ideals import MonomialIdeal
from ginshift.monomials import POLY, squarefree_poly

#: the nine cubics shared by the two criterion-4 ideals (10 generators each
#: with the extra cubic), which separate the Betti cell beta_{3,3}: 2 vs 3
CUBICS = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5),
          (1, 3, 6), (2, 3, 4), (2, 3, 5)]
CRITERION4 = (((1, 4, 5), 2), ((2, 3, 6), 3))

#: generator counts of the seeded oracle ideals; the Taylor complex has
#: 2^r - 1 faces; r = 9 already costs 1-2 s and varies with the ideal,
#: so the seeded part stays small next to the criterion-4 pair
SEEDED_GENERATORS = (6, 7, 8)


@dataclass
class Pass:
    attempted: int
    failed: int
    digest: str


def digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _cubic_ideal(supports) -> MonomialIdeal:
    return MonomialIdeal.make(POLY, 6, [squarefree_poly(s, 6)
                                        for s in supports])


def seeded_stable_supports(rng, r: int) -> list[tuple[int, ...]]:
    """r cubic supports in 6 variables closed under the squarefree
    exchange (replace an index by a smaller one not in the support), grown
    from {1,2,3} by adding a random cubic whose exchanges are all present."""
    cubics = list(combinations(range(1, 7), 3))
    chosen = {(1, 2, 3)}

    def corner(s):
        return all(tuple(sorted((set(s) - {j}) | {i})) in chosen
                   for j in s for i in range(1, j) if i not in s)

    while len(chosen) < r:
        options = [s for s in cubics if s not in chosen and corner(s)]
        chosen.add(options[int(rng.integers(len(options)))])
    return sorted(chosen)


def oracle_inputs(seed: int) -> list[tuple[MonomialIdeal, int | None]]:
    """(ideal, expected beta_{3,3} or None): the criterion-4 pair, then one
    seeded ideal per entry of SEEDED_GENERATORS."""
    out = [(_cubic_ideal(CUBICS + [extra]), cell)
           for extra, cell in CRITERION4]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    out += [(_cubic_ideal(seeded_stable_supports(rng, r)), None)
            for r in SEEDED_GENERATORS]
    return out


#: property_suite draws its random inputs from its own seed, and their cost
#: swings 2.3x between suite seeds (5.2 s at seed 2, 12.1 s at seed 3 on a
#: 2-core machine), far beyond what any run length could average out. So
#: the workload always runs the criterion-9 input set, suite seed 0.
PROPERTY_SUITE_SEED = 0


def inputs(name: str, seed: int):
    """What the program receives. The sweeps take the seed for their random
    trials and weight orders over a fixed set of graphs; betti_oracle draws
    its small ideals from it; properties_200 ignores it (see above)."""
    if name == "betti_oracle":
        return oracle_inputs(seed)
    if name == "properties_200":
        return PROPERTY_SUITE_SEED
    return seed


def run(name: str, data):
    """One pass: the program calls a user of the workload waits for. Entry
    points are looked up at call time so that a tracer's bindings are used."""
    verifier = importlib.import_module("ginshift.verifier")
    invariants = importlib.import_module("ginshift.invariants")
    if name == "thm1_n6":
        return verifier.sweep_theorem1(6, data)
    if name == "thm2_n6":
        return verifier.sweep_theorem2(6, data)
    if name == "properties_200":
        return verifier.property_suite(data, samples=200)
    if name == "betti_oracle":
        return [(invariants.resolution_oracle(ideal),
                 invariants.betti_stable(ideal, invariants.SQUAREFREE), cell)
                for ideal, cell in data]
    raise ValueError(f"unknown workload {name!r}")


def check(name: str, output) -> Pass:
    """Count failed items and digest the seed-independent output."""
    if name == "thm1_n6":
        return _sweep(output, lambda r: not (
            r["condition_v"] == r["condition_vi"] == r["deg2_gin_equal"]
            and r["d_check"]))
    if name == "thm2_n6":
        return _sweep(output,
                      lambda r: r["gins_agree"] != r["base_bipartite"])
    if name == "properties_200":
        checks = [v for v in output.values() if isinstance(v, dict)]
        attempted = sum(v["samples"] for v in checks)
        violations = sum(v["violations"] for v in checks)
        return Pass(attempted, min(violations, attempted), digest(output))
    failed = sum(oracle.as_dict() != closed.as_dict()
                 or (cell is not None and oracle.get(3, 3) != cell)
                 for oracle, closed, cell in output)
    pinned = [oracle.to_json() for oracle, _closed, cell in output
              if cell is not None]
    return Pass(len(output), failed, digest({"criterion4": pinned}))


def _sweep(report, item_failed) -> Pass:
    failed = sum(1 for r in report.records if item_failed(r))
    return Pass(len(report.records), failed, digest(report.payload()))
