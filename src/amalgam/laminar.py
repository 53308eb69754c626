"""Quota-respecting subset selection for a pair of laminar families.

Given laminar families over a finite ground set and an integer n, selects
a subset A with floor(|P|/n) <= |A & P| <= ceil(|P|/n) for every member
set P. No engine calls it: it is public API for the lemma. Implemented
as a feasible integral flow: each family forms a forest by inclusion,
member sets become bounded arcs, ground elements become unit arcs
between the two forests.

One sweep, O(sum |P| log), builds each forest and checks laminarity: the
sets are placed largest first, a set's parent is the last set placed that
holds any one of its elements, and the family is laminar iff that set
holds all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flows import feasible_circulation


class LaminarContractError(ValueError):
    """Input family is not laminar (or sets fall outside the ground set)."""


@dataclass(frozen=True)
class LaminarFamily:
    ground_size: int
    sets: tuple[frozenset[int], ...]

    @staticmethod
    def of(ground_size: int, sets) -> "LaminarFamily":
        return LaminarFamily(ground_size, tuple(frozenset(s) for s in sets))


def verify_laminar(fam: LaminarFamily) -> bool:
    """True iff the member sets lie in the ground set, pairwise nested or disjoint.

    One sweep of ``_forest``: O(sum |P| log) for the member sets P.
    """
    return _forest(fam) is not None


def _forest(fam: LaminarFamily) -> tuple[list[frozenset[int]], list[int], list[int]] | None:
    """The inclusion forest of a family in one sweep, or None if not laminar.

    Returns the deduplicated sets sorted largest first, each set's parent
    index (-1 for roots) and ``owner``: for each ground element, the index
    of the smallest set that holds it (-1 if none).
    """
    size = fam.ground_size
    sets = sorted(set(fam.sets), key=lambda s: (-len(s), sorted(s)))
    owner = [-1] * size
    parents = []
    for i, s in enumerate(sets):
        if not all(0 <= x < size for x in s):
            return None
        # owner[x]: the last set placed that holds x; every earlier set that
        # meets s is at least as large, so a laminar one holds all of s
        parent = next((owner[x] for x in s), -1)
        if any(owner[x] != parent for x in s):
            return None
        parents.append(parent)
        for x in s:
            owner[x] = i
    return sets, parents, owner


def select_subset(
    s_size: int, fam_a: LaminarFamily, fam_b: LaminarFamily, n: int
) -> set[int]:
    """Subset meeting the |P|/n quota for every P in either family.

    Elements in no member set are left out (except for n=1, where the
    quota forces the full ground set).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if fam_a.ground_size != s_size or fam_b.ground_size != s_size:
        raise LaminarContractError("families must share the ground set")
    forests = [_forest(fam) for fam in (fam_a, fam_b)]
    if None in forests:
        raise LaminarContractError("family is not laminar")
    if n == 1:
        return set(range(s_size))

    (sets_a, par_a, owner_a), (sets_b, par_b, owner_b) = forests

    # Node layout: 0=source, 1=sink, then one node per member set.
    src, snk = 0, 1
    node_a = [2 + i for i in range(len(sets_a))]
    node_b = [2 + len(sets_a) + i for i in range(len(sets_b))]
    num_nodes = 2 + len(sets_a) + len(sets_b)

    # arcs: each member set under its parent, then one [0, 1] arc per element
    # in some member set (the others are left out), then sink to source
    elements = [x for x in range(s_size) if owner_a[x] >= 0 or owner_b[x] >= 0]
    tails = [src if p < 0 else node_a[p] for p in par_a] + node_b
    tails += [src if owner_a[x] < 0 else node_a[owner_a[x]] for x in elements] + [snk]
    heads = node_a + [snk if p < 0 else node_b[p] for p in par_b]
    heads += [snk if owner_b[x] < 0 else node_b[owner_b[x]] for x in elements] + [src]
    sets = sets_a + sets_b
    lo = [len(s) // n for s in sets] + [0] * (len(elements) + 1)
    hi = [-(-len(s) // n) for s in sets] + [1] * len(elements) + [s_size]
    flow = feasible_circulation(num_nodes, tails, heads, lo, hi)
    if flow is None:
        raise RuntimeError(
            "no quota-respecting subset found; one always exists for laminar "
            "inputs, so this indicates a bug"
        )
    return {x for x, f in zip(elements, flow[len(sets) :]) if f == 1}

