"""Acceptance gate: one test per shipping criterion, in order.

The file name sorts first so these run before the unit modules and the
timing-sensitive checks start from cold caches.  `pytest -v` shows one
PASSED/FAILED row per criterion; each test also prints a summary line.
"""

import cmath
from fractions import Fraction
from time import perf_counter

from qharmonic.exact import CycloNumber, TPoly, is_rational
from qharmonic.genfun import (
    PINNED_QHS_WITNESS,
    mat_mul,
    pascal_T,
    psi_bruteforce,
    qhs_phi_coefficients,
    series_irrational_term,
    sum_formula,
    validate_qhs_witness,
    x_from_u,
    xi_ones_coeff,
)
from qharmonic.identities import check_identity, default_instances, list_identities
from qharmonic.indices import HeightProfile
from qharmonic.qseries import g_sum, z_t_float, zbar, zeta_params


def _run_all(ident: str):
    reports = []
    for params in default_instances(ident):
        rep = check_identity(ident, params)
        assert rep.status != "fail", f"{ident} {params}: {rep.mismatch}"
        reports.append(rep)
    return reports


def _announce(num: int, text: str) -> None:
    print(f"criterion {num:02d}: PASS  {text}")


def test_criterion_01_state_sum_matches_product_form():
    grid = default_instances("thm1_1")
    start = perf_counter()
    _run_all("thm1_1")
    elapsed = perf_counter() - start
    assert {(p["r"], p["n"], p["q"]) for p in grid} == {
        (r, n, q)
        for r in (1, 2)
        for n in range(2, 6)
        for q in ("zeta", "1/2", "2", "-3", "5/7")
    }
    assert all(p["cap"] <= 4 for p in grid)
    assert elapsed < 30.0, f"cold run took {elapsed:.1f}s"
    _announce(1, f"brute force equals product on 40 instances in {elapsed:.1f}s")


def test_criterion_02_depth_one_ratio_closed_form():
    grid = default_instances("thm1_3")
    assert {p["n"] for p in grid} == set(range(2, 7))
    assert all(p["cap"] <= 5 for p in grid)
    _run_all("thm1_3")
    _announce(2, "depth-one generating ratio matches its closed form")


def test_criterion_03_weight_depth_sums_two_closed_forms():
    grid = default_instances("cor1_4_triple")
    assert {(p["n"], p["k"]) for p in grid} == {
        (n, k) for n in range(2, 7) for k in range(7)
    }
    _run_all("cor1_4_triple")
    spot = TPoly({0: Fraction(1, 3), 1: Fraction(1, 3)})
    assert sum_formula(3, 2, 2, "eq13") == spot
    assert g_sum(HeightProfile(2, 2), zeta_params(3)).rationalized() == spot
    _announce(3, "both closed forms agree with the profile sums")


def test_criterion_04_truncation_rearrangement():
    grid = default_instances("eq1_2_equiv")
    assert {(p["n"], p["k"]) for p in grid} == {
        (n, k) for n in range(2, 8) for k in range(1, 8)
    }
    _run_all("eq1_2_equiv")
    assert sum_formula(3, 2, 1, "eq12") == TPoly.const(Fraction(-2, 3))
    _announce(4, "the two binomial truncations agree at every depth")


def test_criterion_05_constant_index_families():
    grid = default_instances("cor1_5")
    assert {(p["k"], p["n"]) for p in grid} == {
        (k, n) for k in (1, 2, 3) for n in range(2, 7)
    }
    assert all(p["lmax"] >= 4 for p in grid)
    _run_all("cor1_5")
    _announce(5, "closed forms, direct values and v-series coefficients agree")


def test_criterion_06_rationality_at_the_root():
    for r in (1, 2):
        for n in range(2, 6):
            cap = 4 if r == 1 else 3
            psi = psi_bruteforce(n, r, CycloNumber.zeta(n), cap)
            assert series_irrational_term(psi) is None, (r, n)
    for n in range(2, 7):
        for k in range(1, 7):
            flag, _ = is_rational(zbar((k,), zeta_params(n)))
            assert flag, (n, k)
    for n in range(2, 5):
        for k in range(5):
            for l in range(k + 1):
                g_sum(HeightProfile(k, l), zeta_params(n)).rationalized()
    _announce(6, "every aggregated coefficient at the root is rational")


def test_criterion_07_recurrence_system():
    phi_grid = {
        (n, r, q)
        for n in range(2, 6)
        for r in (1, 2)
        for q in ("zeta", "1/2")
    }
    for ident in ("lemma2_1", "prop2_2", "cor2_3", "thm2_4", "c_i"):
        grid = default_instances(ident)
        assert {(p["n"], p["r"], p["q"]) for p in grid} == phi_grid, ident
        assert all(p["cap"] <= 3 for p in grid), ident
        reports = _run_all(ident)
        if ident == "lemma2_1":
            for rep in reports:
                assert int(rep.lhs.split()[0]) >= 50, rep.params
    _announce(7, "the full recurrence system holds on every sampled profile")


def test_criterion_08_binomial_expansion_of_interpolated_values():
    grid = default_instances("lemma3_1")
    assert {(p["n"], p["q"]) for p in grid} == {
        (n, q) for n in range(2, 6) for q in ("zeta", "1/2")
    }
    assert all(p["wtmax"] >= 5 for p in grid)
    _run_all("lemma3_1")
    _announce(8, "z-side values expand binomially into interpolated ones")


def test_criterion_09_substitution_roundtrip():
    grid = default_instances("lemma3_2_roundtrip")
    assert {p["r"] for p in grid} == {1, 2, 3, 4, 5}
    assert max(p["cap"] for p in grid if p["r"] <= 3) == 5
    _run_all("lemma3_2_roundtrip")
    for r in (1, 2, 3):
        x_from_u(r, 5)     # builds without error at the grid's largest cap
    for r in range(1, 6):
        mat, inv = pascal_T(r)
        identity = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
        assert mat_mul(mat, inv) == identity
    _announce(9, "u->x->u is the identity and the triangular pair inverts")


def test_criterion_10_specialized_coefficients():
    for ident in ("lemma4_1", "pt_special"):
        grid = default_instances(ident)
        assert {p["r"] for p in grid} == {1, 2, 3, 4}, ident
        _run_all(ident)
    _announce(10, "coefficient specializations match the signed binomials")


def test_criterion_11_reflection_and_self_duality():
    for ident in ("reflection", "half_t_self_dual"):
        grid = default_instances(ident)
        assert {(p["r"], p["n"]) for p in grid} == {
            (r, n) for r in (1, 2) for n in range(2, 6)
        }, ident
        assert all(p["cap"] <= 4 for p in grid), ident
        _run_all(ident)
    _announce(11, "reflection inverts and t=1/2 is the fixed point")


def test_criterion_12_float_limit_of_all_ones_values():
    for l in (1, 2, 3):
        coeff = xi_ones_coeff(l)
        for t in (0.0, 0.5, 1.0):
            target = complex(float(coeff.eval(Fraction(t)))) * (-2j * cmath.pi) ** l
            errs = [abs(z_t_float((1,) * l, n, t) - target) for n in (50, 400)]
            assert errs[1] < errs[0], (l, t, errs)
            rel = errs[1] / abs(target) if target != 0 else errs[1]
            assert rel < 0.1, (l, t, rel)
    _announce(12, "numeric values approach the predicted limits")


def test_criterion_13_hypergeometric_witness_is_exact_or_skipped():
    rep = check_identity("remark_qhs", {})
    assert rep.status in ("pass", "skip")
    if PINNED_QHS_WITNESS is None:
        assert rep.status == "skip"
    else:
        assert rep.status == "pass"
        assert validate_qhs_witness(PINNED_QHS_WITNESS)
        closed, hyper = qhs_phi_coefficients(PINNED_QHS_WITNESS)
        assert closed == hyper
    _announce(13, f"witness check reported '{rep.status}' from exact data")


def test_criterion_14_default_suite_within_budget():
    start = perf_counter()
    counts = {"pass": 0, "fail": 0, "skip": 0}
    for ident in list_identities():
        for params in default_instances(ident):
            counts[check_identity(ident, params).status] += 1
    elapsed = perf_counter() - start
    assert counts["fail"] == 0, counts
    assert sum(counts.values()) == 281
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    _announce(14, f"{sum(counts.values())} instances in {elapsed:.1f}s")
