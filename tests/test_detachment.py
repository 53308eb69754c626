import dataclasses
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

import amalgam.detachment as detachment
from amalgam import (
    AmalgamationSpec,
    DetachmentContractError,
    DetachmentError,
    DetachmentReport,
    DetachmentResult,
    EdgeColoring,
    Multigraph,
    amalgamate,
    certify,
    decompose_two_class,
    detach,
    ham_decompose_complete,
    qualifying_colors,
    verify_detachment,
    walecki_direct,
)
from amalgam.detachment import _LOOP, _Star, edge_component_count, keeps_components
from tests.conftest import random_detachment_instance
from tests.oracles import (
    _pairwise_verify_detachment,
    _per_cell_keeps_components,
    _rebuilt_row_keeps_components,
    _rescanned_split_state,
    approx,
    components,
)


def test_three_loops_detach_to_triangle():
    h = Multigraph(1, ((0, 0), (0, 0), (0, 0)))
    coloring = EdgeColoring(1, (1, 1, 1))
    result = detach(h, coloring, [3])
    assert result.g.vertex_count == 3
    assert sorted((min(a, b), max(a, b)) for a, b in result.g.edges) == [
        (0, 1), (0, 2), (1, 2),
    ]
    report = verify_detachment(h, coloring, result)
    assert report.all_passed, report


def test_identity_detachment_is_unchanged():
    h = Multigraph(3, ((0, 1), (1, 2), (0, 2)))
    coloring = EdgeColoring(2, (1, 2, 1))
    result = detach(h, coloring, [1, 1, 1])
    assert result.g.edges == h.edges
    assert verify_detachment(h, coloring, result).all_passed


def test_21_loops_three_classes_gives_k7_hamiltonian():
    h = Multigraph(1, ((0, 0),) * 21)
    coloring = EdgeColoring(3, tuple(1 + e // 7 for e in range(21)))
    result = detach(h, coloring, [7])
    report = verify_detachment(h, coloring, result)
    assert report.all_passed, report
    g = result.g
    assert g.vertex_count == 7
    ids = result.coloring.edge_ids_by_class()
    for j in range(1, 4):
        cls = Multigraph(7, tuple(g.edges[e] for e in ids[j]))
        assert cls.degrees() == [2] * 7
        assert components(cls) == 1  # each class is a Hamiltonian cycle


def test_loop_at_unsplit_vertex_rejected():
    h = Multigraph(1, ((0, 0),))
    with pytest.raises(DetachmentContractError):
        detach(h, EdgeColoring(1, (1,)), [1])


def test_loop_at_a_late_unsplit_vertex_is_named(monkeypatch):
    # loops come from the incidence pass; no per-vertex rescan of the edges
    h = Multigraph(4, ((0, 0), (0, 1), (1, 1), (2, 3), (3, 3)))
    coloring = EdgeColoring(1, (1,) * 5)
    with pytest.raises(DetachmentContractError, match=r"^eta\(3\)=1 but vertex 3 has loops$"):
        detach(h, coloring, [2, 3, 1, 1])
    # the first failing vertex in vertex order is named, whichever its fault
    with pytest.raises(DetachmentContractError, match=r"^eta\(2\) must be positive$"):
        detach(h, coloring, [2, 3, 0, 1])
    with pytest.raises(DetachmentContractError, match=r"^eta\(1\)=1 but vertex 1 has loops$"):
        detach(h, coloring, [2, 1, 0, 1])
    assert verify_detachment(h, coloring, detach(h, coloring, [2, 3, 1, 2])).all_passed


def test_adversarial_result_fails_pair_quota():
    # 6 loops at one vertex split over 3 siblings: quota per pair is 2;
    # piling all edges onto one pair must fail the pair-multiplicity check.
    h = Multigraph(1, ((0, 0),) * 6)
    coloring = EdgeColoring(1, (1,) * 6)
    good = detach(h, coloring, [3])
    assert verify_detachment(h, coloring, good).all_passed
    bad_g = Multigraph(3, ((0, 1),) * 6)
    bad = DetachmentResult(bad_g, coloring, good.spec, good.labels)
    report = verify_detachment(h, coloring, bad)
    assert not report.all_passed
    assert report.properties["A3"] is False


def test_structural_errors_reported_distinctly():
    h = Multigraph(1, ((0, 0), (0, 0), (0, 0)))
    coloring = EdgeColoring(1, (1, 1, 1))
    good = detach(h, coloring, [3])
    with_loop = Multigraph(3, good.g.edges[:-1] + ((1, 1),))
    report = verify_detachment(
        h, coloring, DetachmentResult(with_loop, coloring, good.spec, good.labels)
    )
    assert not report.structural_ok
    assert any("loops" in e for e in report.structural_errors)
    assert report.properties == {}


def test_zero_eta_is_a_structural_error():
    # AmalgamationSpec accepts an eta of 0 for a vertex with no preimage
    h = Multigraph(2, ((0, 0),) * 2)
    coloring = EdgeColoring(1, (1, 1))
    g = Multigraph(2, ((0, 1),) * 2)
    spec = AmalgamationSpec((2, 0), (0, 0))
    result = DetachmentResult(g, coloring, spec, {0: [0, 1], 1: []})
    report = verify_detachment(h, coloring, result)
    assert not report.structural_ok
    assert report.structural_errors == ["eta(1) must be positive"]
    assert report.properties == {}
    assert report == _pairwise_verify_detachment(h, coloring, result)


@pytest.mark.parametrize("colors", [(1, 1, 2), (1, 1, 2, 2, 1)])
def test_verifier_checks_detachs_coloring_contract(colors):
    # one vertex with four loops colored 1, 1, 2, 2, detached to two vertices; the same
    # coloring one edge short or long is the input's and the result's: not one per edge of H
    h = Multigraph(1, ((0, 0),) * 4)
    good = detach(h, EdgeColoring(2, (1, 1, 2, 2)), [2])
    coloring = EdgeColoring(2, colors)
    result = dataclasses.replace(good, coloring=coloring)
    report = verify_detachment(h, coloring, result)
    assert report == DetachmentReport(False, ["coloring does not match H"], {})
    assert report == _pairwise_verify_detachment(h, coloring, result)


@pytest.mark.parametrize("replaced,error", [
    # eta (3, 0) on a one-vertex H: the length error alone, not eta(1) as well
    ({"spec": AmalgamationSpec((3, 0), (0, 0, 0))}, "eta must be total on V(H)"),
    ({"spec": AmalgamationSpec((2,), (0, 0))}, "phi not total on V(G)"),
    ({"g": Multigraph(3, ((0, 1), (1, 2)))}, "edge count changed"),
    ({"coloring": EdgeColoring(2, (1, 1, 1))}, "coloring was not carried over by edge identity"),
])
def test_each_structural_error_alone(replaced, error):
    # three loops colored 1 detached into a triangle, with one field of the result replaced
    h = Multigraph(1, ((0, 0),) * 3)
    coloring = EdgeColoring(1, (1, 1, 1))
    result = dataclasses.replace(detach(h, coloring, [3]), **replaced)
    report = verify_detachment(h, coloring, result)
    assert report == DetachmentReport(False, [error], {})
    assert report == _pairwise_verify_detachment(h, coloring, result)


def test_qualifying_colors():
    # color 1 degree 4 at the only vertex (eta=2): 4 % (2*2) == 0 -> qualifies
    h = Multigraph(1, ((0, 0), (0, 0), (0, 0)))
    coloring = EdgeColoring(2, (1, 1, 2))
    assert qualifying_colors(h, coloring, [2]) == [1]


def test_edge_component_count_edge_induced():
    assert edge_component_count([]) == 0
    assert edge_component_count([(0, 1), (2, 3)]) == 2
    assert edge_component_count([(0, 1), (1, 2)]) == 1
    assert edge_component_count([(4, 4)]) == 1  # a loop touches its vertex
    assert edge_component_count(pair for pair in [(0, 1), (2, 3), (1, 2)]) == 1


def test_reamalgamation_recovers_h():
    rng = random.Random(17)
    done = 0
    while done < 20:
        inst = random_detachment_instance(rng)
        if inst is None:
            continue
        h, coloring, eta = inst
        result = detach(h, coloring, eta)
        back, _ = amalgamate(result.g, list(result.spec.phi))
        assert back.edge_count == h.edge_count
        norm = lambda g: sorted((min(a, b), max(a, b)) for a, b in g.edges)
        assert norm(back) == norm(h)
        done += 1


def test_repeat_calls_are_deterministic():
    h = Multigraph(2, ((0, 0), (0, 0), (0, 1), (0, 1), (1, 1), (0, 0)))
    coloring = EdgeColoring(2, (1, 1, 2, 2, 2, 2))
    first = detach(h, coloring, [3, 2])
    for _ in range(3):
        again = detach(h, coloring, [3, 2])
        assert again.g.edges == first.g.edges
        assert again.spec == first.spec


def test_random_instances_pass_all_properties():
    rng = random.Random(99)
    done = 0
    while done < 60:
        inst = random_detachment_instance(rng)
        if inst is None:
            continue
        h, coloring, eta = inst
        result = detach(h, coloring, eta)
        report = verify_detachment(h, coloring, result)
        assert report.all_passed, (h.edges, coloring.colors, eta, report.properties)
        done += 1


def test_approx_floor_ceil():
    assert approx(3, 7 / 2)
    assert approx(4, 7 / 2)
    assert not approx(5, 7 / 2)
    assert approx(2, 2.0)
    assert not approx(1, 2.0)


def _moved_endpoints(result, rng, moves, anywhere=0.2):
    """A copy of ``result`` with ``moves`` endpoints moved, mostly to another sibling."""
    edges = [list(pair) for pair in result.g.edges]
    phi = result.spec.phi
    for _ in range(moves):
        end = edges[rng.randrange(len(edges))]
        side = rng.randrange(2)
        others = [w for w in result.labels[phi[end[side]]] if w != end[side]]
        if others and rng.random() >= anywhere:
            end[side] = rng.choice(others)
        else:
            end[side] = rng.randrange(result.g.vertex_count)
    g = Multigraph(result.g.vertex_count, tuple(tuple(pair) for pair in edges))
    return DetachmentResult(g, result.coloring, result.spec, result.labels)


def _assert_same_report(h, coloring, result, failed):
    report = verify_detachment(h, coloring, result)
    assert report == _pairwise_verify_detachment(h, coloring, result), (
        h.edges, coloring.colors, result.spec, result.g.edges,
    )
    failed.update(name for name, ok in report.properties.items() if not ok)


def _ring(n):
    """n fused vertices in a ring, two loops each and doubled ring edges, eta = 2."""
    edges = []
    for v in range(n):
        edges += [(v, v)] * 2 + [(min(v, (v + 1) % n), max(v, (v + 1) % n))] * 2
    return Multigraph(n, tuple(edges)), EdgeColoring(1, (1,) * len(edges)), [2] * n


@pytest.mark.parametrize(
    "seed,draws", [(707, 500), pytest.param(708, 2000, marks=pytest.mark.slow)]
)
def test_counting_verifier_matches_pairwise_oracle(seed, draws):
    # each draw and five copies with 1-3 endpoints moved; every fourth past the suite's bounds
    rng = random.Random(seed)
    failed: Counter = Counter()
    done = 0
    while done < draws:
        bounds = {"max_vertices": 8, "max_eta": 6, "max_colors": 6} if done % 4 == 0 else {}
        inst = random_detachment_instance(rng, **bounds)
        if inst is None:
            continue
        h, coloring, eta = inst
        result = detach(h, coloring, eta)
        _assert_same_report(h, coloring, result, failed)
        for _ in range(5):
            _assert_same_report(h, coloring, _moved_endpoints(result, rng, rng.randint(1, 3)), failed)
        done += 1
    assert set(failed) == {"A1", "A2", "A3", "A4", "A5", "A6", "A7"}, failed


def test_counting_verifier_matches_pairwise_oracle_on_large_fibers():
    # the fused K_41 (one fiber of 41) and a 150-vertex ring, each also with one endpoint moved
    rng = random.Random(41)
    cert = walecki_direct(41, 1)
    g = Multigraph(41, tuple(e for c in cert.classes for e in c.edges))
    coloring = EdgeColoring(
        len(cert.classes), tuple(j for j, c in enumerate(cert.classes, 1) for _ in c.edges)
    )
    h, spec = amalgamate(g, [0] * 41)
    fused = DetachmentResult(g, coloring, spec, {0: list(range(41))})
    ring_h, ring_coloring, ring_eta = _ring(150)
    ring = detach(ring_h, ring_coloring, ring_eta)
    for h, coloring, result in ((h, coloring, fused), (ring_h, ring_coloring, ring)):
        failed: Counter = Counter()
        _assert_same_report(h, coloring, result, failed)
        assert not failed
        _assert_same_report(h, coloring, _moved_endpoints(result, rng, 1, anywhere=0), failed)
        assert failed


def test_counting_verifier_reads_each_edge_in_either_order():
    # G's ends map onto H's through phi of G's own ends, so reversing G's edges
    # changes no verdict, also on copies with endpoints moved
    rng = random.Random(1985)
    failed: Counter = Counter()
    done = 0
    while done < 200:
        inst = random_detachment_instance(rng)
        if inst is None:
            continue
        h, coloring, eta = inst
        result = detach(h, coloring, eta)
        for copy in (result, _moved_endpoints(result, rng, rng.randint(1, 3))):
            g = Multigraph(copy.g.vertex_count, tuple((b, a) for a, b in copy.g.edges))
            reversed_copy = DetachmentResult(g, copy.coloring, copy.spec, copy.labels)
            report = verify_detachment(h, coloring, reversed_copy)
            assert report == verify_detachment(h, coloring, copy), (h.edges, g.edges)
            _assert_same_report(h, coloring, reversed_copy, failed)
        done += 1
    assert {"A1", "A2"} <= set(failed), failed


def _on_every_split(monkeypatch, check):
    """Call check(star, delta, counts, guarded, colors, quals) at every split, inside the real detach.

    ``counts`` is the split's move count per cell and ``guarded`` lists the
    rows that the component guard was given.
    """
    real_counts, real_guard = detachment._split_counts, detachment.keeps_components
    real_quals = detachment._qualifying_classes
    call = {}

    def qualifying(h, colors, eta):
        # detach asks for its qualifying classes before its first split
        class_edges = real_quals(h, colors, eta)
        call["colors"] = list(colors)
        call["quals"] = list(class_edges)
        return class_edges

    def guard(row):
        call["guarded"].append(row)
        return real_guard(row)

    def split_counts(star, delta):
        call["guarded"] = []
        counts = real_counts(star, delta)
        check(star, delta, counts, call["guarded"], call["colors"], call["quals"])
        return counts

    monkeypatch.setattr(detachment, "_qualifying_classes", qualifying)
    monkeypatch.setattr(detachment, "keeps_components", guard)
    monkeypatch.setattr(detachment, "_split_counts", split_counts)


def test_split_state_matches_rescan_oracle(monkeypatch):
    splits = []

    def check(star, delta, counts, guarded, colors, quals):
        cells, groups = _rescanned_split_state(star.endpoints, colors, star.u, quals)
        # the same cells with their slots in the same order, counted in sorted order
        assert sorted(star.cell_slots.items()) == sorted(cells.items())
        assert list(counts) == sorted(cells)
        # the guard saw each qualifying color at u once, in order, with its row: the
        # cells group by group, each group where its first cell is, the loop cell as _LOOP
        assert len(guarded) == len(groups)
        for row, (j, group_of) in zip(guarded, groups.items()):
            cells_of: dict = {}
            for c, z in sorted(cells):
                if c == j:
                    cells_of.setdefault(_LOOP if z == _LOOP else group_of[z], []).append(z)
            want = [
                (group, counts[(j, z)], len(cells[(j, z)]))
                for group, zs in cells_of.items()
                for z in zs
            ]
            assert [cell[1:] for cell in row] == [cell[1:] for cell in want]
            # the same partition into groups: the star's roots name the rescanned
            # groups one to one, and only the loop cell is named _LOOP
            names = {(a[0], b[0]) for a, b in zip(want, row)}
            assert len(names) == len({a for a, _ in names}) == len({b for _, b in names})
            assert all((a == _LOOP) == (b == _LOOP) for a, b in names)
        splits.append(star.u)

    _on_every_split(monkeypatch, check)
    rng = random.Random(20240817)  # the criterion-6 pool
    done = 0
    while done < 500:
        inst = random_detachment_instance(rng)
        if inst is None:
            continue
        detach(*inst)
        done += 1
    pool_splits = len(splits)
    for n in range(2, 16):
        assert certify(ham_decompose_complete(n, 1)).passed
    assert pool_splits > 1000 and len(splits) - pool_splits == sum(range(1, 15))


def test_component_test_matches_rebuilt_edge_lists(monkeypatch):
    rows_checked = []

    def check(star, delta, counts, guarded, colors, quals):
        endpoints = star.endpoints
        w = 1 + max(max(pair) for pair in endpoints)  # a fresh vertex
        cells, groups = _rescanned_split_state(endpoints, colors, star.u, quals)
        cell_sizes = {cell: len(slots) for cell, slots in cells.items()}
        for j, group_of in groups.items():
            row_cells = [z for c, z in sorted(cells) if c == j]
            sizes = [cell_sizes[(j, z)] for z in row_cells]
            windows = [range(size // delta, -(-size // delta) + 1) for size in sizes]
            names = [_LOOP if z == _LOOP else group_of[z] for z in row_cells]
            for values in itertools.product(*windows):
                row = dict(zip(row_cells, values))
                assert keeps_components(
                    list(zip(names, values, sizes))
                ) == _rebuilt_row_keeps_components(
                    endpoints, colors, star.u, w, cell_sizes, j, row,
                ), (endpoints, colors, star.u, delta, j, row)
                rows_checked.append(1)

    _on_every_split(monkeypatch, check)
    rng = random.Random(4242)
    done = 0
    while done < 80:
        inst = random_detachment_instance(rng)
        if inst is None:
            continue
        detach(*inst)  # walks the real split sequence, checking every split on the way
        done += 1
    assert len(rows_checked) > 1000


def test_guard_matches_per_cell_oracle_on_every_small_row():
    # every row of at most 4 neighbor cells over at most 3 groups, each cell
    # of 1-3 slots with every take, with no loop cell or a one-loop cell and
    # every take; group ids are only names, so the groups used are 0..k-1
    cells = [(g, size, take) for g in range(3) for size in (1, 2, 3) for take in range(size + 1)]
    loops = [[]] + [[(_LOOP, take, 2)] for take in range(3)]
    verdicts = Counter()
    for m in range(5):
        for chosen in itertools.combinations_with_replacement(cells, m):
            used = {g for g, _, _ in chosen}
            if used != set(range(len(used))):
                continue
            for loop in loops:
                row = loop + [(g, take, size) for g, size, take in chosen]
                verdict = keeps_components(row)
                assert verdict == _per_cell_keeps_components(row), row
                verdicts[verdict] += 1
    assert verdicts == {True: 69_863, False: 3_197}


def test_rejected_structure_names_what_broke(monkeypatch):
    h = Multigraph(1, ((0, 0),) * 3)
    coloring = EdgeColoring(1, (1, 1, 1))
    rejected = DetachmentReport(False, ["edge count changed"], {})
    monkeypatch.setattr(detachment, "verify_detachment", lambda *args: rejected)
    with pytest.raises(DetachmentError) as info:
        detach(h, coloring, [3])
    err = info.value
    assert err.violated == ["edge count changed"]
    assert (err.vertex, err.delta, err.color) == (None, None, None)
    assert str(err) == "detachment failed properties: edge count changed"


def test_complete_41_certifies():
    assert certify(ham_decompose_complete(41, 1)).passed


@pytest.mark.parametrize("n,m,lam,mu", [(4, 3, 0, 3), (6, 6, 2, 1), (4, 5, 0, 4)])
def test_two_class_splits_certify(n, m, lam, mu):
    assert certify(decompose_two_class(n, m, lam, mu)).passed


def test_one_circulation_per_split(monkeypatch):
    # no search and no retry: each split that has cells solves one circulation
    splits, circulations = [], []
    real_split, real_circulation = _Star.split, detachment.feasible_circulation

    def split(self, delta, new_vertex):
        if self.cell_slots:
            splits.append(self.u)
        real_split(self, delta, new_vertex)

    def circulation(*args):
        circulations.append(1)
        return real_circulation(*args)

    monkeypatch.setattr(_Star, "split", split)
    monkeypatch.setattr(detachment, "feasible_circulation", circulation)
    rng = random.Random(20240817)  # the criterion-6 pool
    done = 0
    while done < 500:
        inst = random_detachment_instance(rng)
        if inst is None:
            continue
        detach(*inst)
        done += 1
    assert len(splits) > 500 and len(circulations) == len(splits)
    del splits[:], circulations[:]
    assert certify(decompose_two_class(4, 5, 0, 4)).passed
    assert len(splits) > 0 and len(circulations) == len(splits)


def test_failed_search_names_vertex_split_and_color(monkeypatch):
    h = Multigraph(1, ((0, 0),) * 3)
    coloring = EdgeColoring(1, (1, 1, 1))
    # the per-split guard rejects a qualifying color's row
    monkeypatch.setattr(detachment, "keeps_components", lambda row: False)
    with pytest.raises(DetachmentError) as info:
        detach(h, coloring, [3])
    err = info.value
    assert err.violated == ["construction"]
    assert (err.vertex, err.delta, err.color) == (0, 3, 1)
    assert str(err).endswith("construction at vertex 0, split delta=3, color 1")
    # the quota windows admit no circulation
    monkeypatch.setattr(detachment, "feasible_circulation", lambda *args: None)
    with pytest.raises(DetachmentError) as info:
        detach(h, coloring, [3])
    err = info.value
    assert (err.vertex, err.delta, err.color) == (0, 3, None)
    assert str(err).endswith("construction at vertex 0, split delta=3, no color")


def _recolored_ring(n):
    """``_ring(n)`` with each loop pair and each ring pair given its own color: 2n colors."""
    h, _, eta = _ring(n)
    return h, EdgeColoring(2 * n, tuple(1 + e // 2 for e in range(h.edge_count))), eta


def _doubled_ring(n):
    """n fused vertices in a ring of doubled edges, eta = 2."""
    edges = tuple((min(v, (v + 1) % n), max(v, (v + 1) % n)) for v in range(n) for _ in range(2))
    return Multigraph(n, edges), [2] * n


def test_detach_costs_the_keys_that_occur():
    # the doubled ring colored 1 and 2 gives the same graph at k = 10^5 as at k = 2
    h, eta = _doubled_ring(20)
    result = detach(h, EdgeColoring(10**5, (1, 2) * 20), eta)
    assert result.g == detach(h, EdgeColoring(2, (1, 2) * 20), eta).g
    # the recolored ring has 2,000 colors on 1,000 vertices: no table of vertices
    # by colors, which would take tens of MiB
    h, coloring, eta = _recolored_ring(1000)
    tracemalloc.start()
    try:
        result = detach(h, coloring, eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.g.vertex_count == 2000
    assert peak < 16 * 2**20, peak


def test_qualifying_colors_costs_the_keys_that_occur():
    # the doubled ring at k = 10^5: colors 1 and 2 have degree 2 at every vertex
    # (eta = 2) and fail, and every absent color qualifies vacuously
    h, eta = _doubled_ring(20)
    assert qualifying_colors(h, EdgeColoring(10**5, (1, 2) * 20), eta) == list(range(3, 10**5 + 1))
    # on the recolored ring each loop pair's color qualifies and each ring pair's fails
    h, coloring, eta = _recolored_ring(1000)
    assert qualifying_colors(h, coloring, eta) == list(range(1, 2001, 2))


def test_qualifying_colors_checks_its_inputs():
    h = Multigraph(2, ((0, 0), (0, 1)))
    coloring = EdgeColoring(1, (1, 1))
    for eta, message in (
        ([0, 1], r"^eta\(0\) must be positive$"),
        ([2, -1], r"^eta\(1\) must be positive$"),
        ([2], r"^eta must be total on V\(H\)$"),
        ([2, 1, 1], r"^eta must be total on V\(H\)$"),
    ):
        with pytest.raises(DetachmentContractError, match=message):
            qualifying_colors(h, coloring, eta)
    for colors in ((1,), (1, 1, 1)):
        with pytest.raises(DetachmentContractError, match=r"^coloring does not match H$"):
            qualifying_colors(h, EdgeColoring(1, colors), [2, 1])
    # loops at an eta = 1 vertex do not stop the test, only a detachment
    assert qualifying_colors(Multigraph(1, ((0, 0),)), EdgeColoring(1, (1,)), [1]) == [1]


def test_star_reads_only_the_colors_at_its_vertex():
    # on the recolored ring every loop pair's color qualifies, but a star at u
    # reads the class map only at u's own colors, no more of them than u has cells
    class RecordingMap(dict):
        read = set()

        def __iter__(self):
            for key in super().__iter__():
                RecordingMap.read.add(key)
                yield key

        def __contains__(self, key):
            RecordingMap.read.add(key)
            return super().__contains__(key)

        def __getitem__(self, key):
            RecordingMap.read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            RecordingMap.read.add(key)
            return super().get(key, default)

    h, coloring, _ = _recolored_ring(200)
    colors = coloring.colors
    class_edges = RecordingMap()
    for e, c in enumerate(colors):
        if c % 2:  # the loop pairs' colors: degree 4 at their vertex, eta = 2
            class_edges.setdefault(c, []).append(e)
    for u in (0, 100, 199):
        RecordingMap.read = set()
        incident = [e for e, pair in enumerate(h.edges) if u in pair]
        star = _Star(u, [list(pair) for pair in h.edges], colors, incident, class_edges)
        assert len(star.cell_slots) == 3 and list(star.groups) == [2 * u + 1]
        assert 2 * u + 1 in RecordingMap.read
        assert len(RecordingMap.read) <= len(star.cell_slots), RecordingMap.read


def test_qualifying_colors_matches_the_dense_table():
    # every color 1..k, occurring or not, against a full V x (k+1) table
    rng = random.Random(1985)
    done = 0
    while done < 300:
        inst = random_detachment_instance(rng)
        if inst is None:
            continue
        h, coloring, eta = inst
        k = coloring.k + rng.randint(0, 3)
        coloring = EdgeColoring(k, coloring.colors)
        deg = [[0] * (k + 1) for _ in range(h.vertex_count)]
        for (a, b), c in zip(h.edges, coloring.colors):
            deg[a][c] += 1
            deg[b][c] += 1
        want = [j for j in range(1, k + 1) if all(row[j] % (2 * n) == 0 for row, n in zip(deg, eta))]
        assert qualifying_colors(h, coloring, eta) == want
        done += 1

@pytest.mark.slow
def test_beyond_bounds_stress():
    # fused vertices <= 8, eta <= 6, k <= 6: past the stress-suite bounds
    rng = random.Random(8)
    done = 0
    while done < 1000:
        inst = random_detachment_instance(rng, max_vertices=8, max_eta=6, max_colors=6)
        if inst is None:
            continue
        h, coloring, eta = inst
        result = detach(h, coloring, eta)
        assert verify_detachment(h, coloring, result).all_passed, (h.edges, coloring.colors, eta)
        done += 1


@pytest.mark.slow
def test_ring_600_detaches():
    # one split per fused vertex, so each split pays for building its star
    h, coloring, eta = _ring(600)
    result = detach(h, coloring, eta)
    assert verify_detachment(h, coloring, result).all_passed
