import pathlib

import numpy as np
import pytest

from cnfopt.expr import Point, evaluate
from cnfopt.model import check_feasible, dump_problem, load_problem, validate_exactness
from cnfopt.problems import EXACT_IDS, build, catalog_ids, default_entries

GOLDEN = pathlib.Path(__file__).parent / "golden"


class TestBuild:
    def test_ex7_dimensions_and_reference(self):
        entry = build("ex7")
        prob = entry.problem
        assert (prob.n, prob.m, prob.s, prob.r) == (2, 3, 4, 3)
        assert prob.reference([0.0, 0.0]) == 0.0
        assert entry.start.flat() == pytest.approx([2, 2, 2, 2, 2])

    def test_ex8_reference_zero_on_equal_magnitudes(self):
        entry = build("ex8", n=5)
        for alpha in (0.0, 0.5, 3.4366, -1.25):
            x = alpha * np.array([1, -1, -1, 1, 1.0])
            assert entry.problem.reference(x) == pytest.approx(0.0, abs=1e-12)

    def test_ex8_with_one_coordinate_evaluates_its_reference(self):
        # max takes two or more arguments, so n = 1 uses the lone |x_1|
        prob = build("ex8", n=1).problem
        for x in (0.0, 2.5, -3.0):
            assert prob.reference([x]) == 0.0
            assert prob.objective(prob.lift([x])) == 0.0

    def test_ex9_reference_matches_reported_row(self):
        # final row of the lam=1 run: two nonzeros with 9*x9 + 10*x10 ~ 20
        entry = build("ex9", n=10, lam=1.0)
        x = np.zeros(10)
        x[8] = -0.9386
        x[9] = 2.8448
        assert entry.problem.reference(x) == pytest.approx(2.0002, abs=1e-3)
        assert 9 * x[8] + 10 * x[9] == pytest.approx(20.0, abs=1e-2)

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            build("nope")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build("ex9", n=0)
        with pytest.raises(ValueError):
            build("ex9", n=5, lam=-1.0)
        with pytest.raises(ValueError):
            build("ex3", I=0)

    def test_catalog_ids_stable(self):
        assert catalog_ids() == sorted(
            ["ex1a", "ex1b", "ex2", "ex3", "ex4", "ex5", "ex7", "ex8", "ex9"]
        )


class TestLift:
    def test_ex5_lift_by_hand(self):
        entry = build("ex5")
        p = entry.lift([1.0, 1.0])
        assert p.y == pytest.approx([1.0, 2.0, 1.0, 1.0])
        rep = check_feasible(entry.problem, p, tol=1e-12)
        assert rep.in_feasible_set
        assert entry.problem.objective(p) == pytest.approx(3.0)
        assert entry.problem.reference([1.0, 1.0]) == pytest.approx(3.0)

    def test_ex9_lift_of_zero_vector(self):
        entry = build("ex9", n=4, lam=1.0)
        p = entry.lift(np.zeros(4))
        # indicators off, so each auxiliary square equals 1
        assert p.y[:4] == pytest.approx([0, 0, 0, 0])
        assert p.y[4:] == pytest.approx([1, 1, 1, 1])
        assert check_feasible(entry.problem, p, tol=1e-12).in_feasible_set
        assert entry.problem.objective(p) == pytest.approx(entry.problem.reference(p.x))

    def test_ex8_lift_equal_magnitudes(self):
        entry = build("ex8", n=5)
        x = 2.5 * np.array([1, -1, 1, 1, -1.0])
        p = entry.lift(x)
        assert p.y[:5] == pytest.approx(np.full(5, 2.5))
        assert p.y[5:10] == pytest.approx(np.full(5, 6.25))
        assert p.y[10] == pytest.approx(2.5)
        assert entry.problem.objective(p) == pytest.approx(0.0, abs=1e-12)

    def test_lift_feasible_with_tight_tolerance(self):
        rng = np.random.default_rng(11)
        for entry in default_entries():
            prob = entry.problem
            for _ in range(20):
                x = rng.uniform(prob.box[0], prob.box[1], prob.n)
                rep = check_feasible(prob, prob.lift(x), tol=1e-10)
                assert rep.in_feasible_set, entry.id


class TestExactness:
    @pytest.mark.parametrize("entry_id", EXACT_IDS)
    def test_exact_entries(self, entry_id):
        entry = build(entry_id)
        assert entry.problem.exact
        assert validate_exactness(entry.problem, samples=1000, seed=7) <= 1e-8

    def test_ex9_matches_reference_at_lift_points(self):
        # not an exact form, but the constructed lift attains the minimum
        entry = build("ex9", n=6, lam=2.0)
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = rng.uniform(-5, 5, 6)
            p = entry.lift(x)
            assert entry.problem.objective(p) == pytest.approx(
                entry.problem.reference(x), abs=1e-9
            )

    def test_ex2_known_discrepancy(self):
        # the printed lift pins y_i to |b_i.x|, not sqrt|b_i.x|, so the
        # lifted objective does not reproduce the reference; the entry is
        # flagged inexact and the gap really is large
        entry = build("ex2")
        assert not entry.problem.exact
        assert validate_exactness(entry.problem, samples=200, seed=0) > 1e-2

    def test_ex1_variants_agree(self):
        a = build("ex1a")
        b = build("ex1b")
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = rng.uniform(-5, 5, 2)
            fa = a.problem.objective(a.lift(x))
            fb = b.problem.objective(b.lift(x))
            assert fa == pytest.approx(fb, rel=1e-10, abs=1e-12)
            assert fa == pytest.approx(a.problem.reference(x), rel=1e-10, abs=1e-12)


class TestSurrogate:
    def test_ex9_surrogate_counts_indicators(self):
        entry = build("ex9", n=5, lam=1.0)
        p = entry.lift([0.0, 1.3, 0.0, -2.0, 0.0])
        assert evaluate(entry.norm0_surrogate, p) == pytest.approx(2.0)

    def test_ex4_surrogate(self):
        entry = build("ex4", n=3)
        p = entry.lift([1.0, 0.0, -1.0])
        assert evaluate(entry.norm0_surrogate, p) == pytest.approx(2.0)


class TestGolden:
    @pytest.mark.parametrize("entry_id", sorted(catalog_ids()))
    def test_export_matches_golden_file(self, entry_id):
        text = dump_problem(build(entry_id).problem)
        golden = (GOLDEN / f"{entry_id}.cnf").read_text(encoding="utf-8")
        assert text == golden

    @pytest.mark.parametrize("entry_id", sorted(catalog_ids()))
    def test_golden_files_load_and_evaluate(self, entry_id):
        entry = build(entry_id)
        loaded = load_problem((GOLDEN / f"{entry_id}.cnf").read_text(encoding="utf-8"))
        prob = entry.problem
        assert (loaded.n, loaded.m, loaded.s, loaded.r) == (prob.n, prob.m, prob.s, prob.r)
        rng = np.random.default_rng(1)
        for _ in range(5):
            p = Point(
                rng.uniform(-2, 2, prob.n), rng.uniform(-2, 2, prob.m)
            )
            assert loaded.objective(p) == pytest.approx(prob.objective(p), rel=1e-12)
