import random

import pytest

from amalgam import LaminarContractError, LaminarFamily, select_subset, verify_laminar
from amalgam.laminar import _forest
from tests.oracles import _pairwise_laminar, _random_laminar, quota_ok


def fam(ground, *sets):
    return LaminarFamily.of(ground, sets)


def test_verify_laminar_basic():
    assert verify_laminar(fam(3, {0, 1}, {2}))
    assert verify_laminar(fam(3, {0, 1}, {0, 1, 2}))
    assert not verify_laminar(fam(3, {0, 1}, {1, 2}))
    assert not verify_laminar(fam(2, {0, 5}))


def test_select_n1_returns_full_set():
    a = fam(4, {0, 1})
    assert select_subset(4, a, a, 1) == {0, 1, 2, 3}


def test_select_rejects_n_below_one():
    a = fam(4, {0, 1})
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        select_subset(4, a, a, 0)


def test_select_crossing_families_quota():
    a = fam(4, {0, 1}, {2, 3}, {0, 1, 2, 3})
    b = fam(4, {0, 2}, {0, 1, 2, 3})
    chosen = select_subset(4, a, b, 2)
    assert chosen in ({0, 3}, {1, 2})


def test_select_single_set_family():
    a = fam(6, set(range(6)))
    chosen = select_subset(6, a, a, 4)
    assert 1 <= len(chosen) <= 2


def test_unconstrained_elements_excluded():
    a = fam(5, {0, 1})
    b = fam(5, {0, 1})
    chosen = select_subset(5, a, b, 2)
    assert chosen <= {0, 1}
    assert len(chosen) == 1


def test_non_laminar_rejected():
    bad = fam(3, {0, 1}, {1, 2})
    with pytest.raises(LaminarContractError):
        select_subset(3, bad, bad, 2)
    with pytest.raises(LaminarContractError):
        select_subset(4, fam(3, {0}), fam(4, {0}), 2)


def _random_family(rng: random.Random, size: int) -> LaminarFamily:
    """A laminar family, often spoiled: crossing, duplicate, empty or outside sets."""
    sets = list(_random_laminar(rng, size).sets)
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.3:
            sets.append({x for x in range(size) if rng.random() < 0.5})  # may cross
        elif roll < 0.55 and sets:
            sets.append(rng.choice(sets))  # duplicate
        elif roll < 0.8:
            sets.append(set())
        elif roll < 0.9:
            sets.append({rng.choice([-1, size, size + 3])})  # outside the ground set
    rng.shuffle(sets)
    return LaminarFamily.of(size, sets)


def test_sweep_matches_pairwise_oracle():
    rng = random.Random(23)
    verdicts = {True: 0, False: 0}
    for _ in range(2000):
        size = rng.randint(0, 9)
        a, b = _random_family(rng, size), _random_family(rng, size)
        ok_a, ok_b = _pairwise_laminar(a), _pairwise_laminar(b)
        verdicts[ok_a] += 1
        assert verify_laminar(a) == ok_a
        n = rng.randint(1, 4)
        if ok_a and ok_b:
            chosen = select_subset(size, a, b, n)
            assert quota_ok(chosen, a, n) and quota_ok(chosen, b, n)
        else:
            with pytest.raises(LaminarContractError):
                select_subset(size, a, b, n)
        if not ok_a:
            assert _forest(a) is None
            continue
        sets, parents, owner = _forest(a)
        assert len(sets) == len(set(a.sets)) and set(sets) == set(a.sets)
        assert all(len(p) >= len(q) for p, q in zip(sets, sets[1:]))
        # brute force: the smallest strict superset meeting the set, the smallest set holding x
        for i, s in enumerate(sets):
            supers = [j for j, sup in enumerate(sets) if s and s < sup]
            assert parents[i] == max(supers, default=-1)
        for x in range(size):
            assert owner[x] == max((i for i, s in enumerate(sets) if x in s), default=-1)
    assert min(verdicts.values()) > 400, verdicts


def _oracle_has_valid_subset(size, fam_a, fam_b, n):
    for bits in range(1 << size):
        subset = {i for i in range(size) if bits >> i & 1}
        if quota_ok(subset, fam_a, n) and quota_ok(subset, fam_b, n):
            return True
    return False


def test_select_matches_exhaustive_oracle():
    rng = random.Random(11)
    for _ in range(120):
        size = rng.randint(1, 12)
        a = _random_laminar(rng, size)
        b = _random_laminar(rng, size)
        n = rng.randint(1, 5)
        assert verify_laminar(a) and verify_laminar(b)
        chosen = select_subset(size, a, b, n)
        assert quota_ok(chosen, a, n)
        assert quota_ok(chosen, b, n)
        if size <= 10:
            assert _oracle_has_valid_subset(size, a, b, n)


def test_select_deterministic():
    a = fam(8, {0, 1, 2}, {3, 4}, set(range(8)))
    b = fam(8, {0, 3, 5}, set(range(8)))
    first = select_subset(8, a, b, 3)
    for _ in range(5):
        assert select_subset(8, a, b, 3) == first
