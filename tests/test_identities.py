import pytest

from qharmonic.identities import InvalidParams, check_identity, default_instances, list_identities

# The integer parameters of every check, as (key, lo, hi) in the order they
# are validated, and the checks that also take q (validated last, against n).
# This table is the reference the registry's declarations are pinned to.
INT_PARAMS = {
    "thm1_1": [("n", 2, 16), ("r", 1, 4), ("cap", 1, 8)],
    "reflection": [("n", 2, 16), ("r", 1, 4), ("cap", 1, 8)],
    "half_t_self_dual": [("n", 2, 16), ("r", 1, 4), ("cap", 1, 8)],
    "thm1_3": [("n", 2, 16), ("cap", 1, 8)],
    "cor1_4_triple": [("n", 2, 10), ("k", 0, 8)],
    "eq1_2_equiv": [("n", 2, 10), ("k", 1, 10)],
    "cor1_5": [("k", 1, 3), ("n", 2, 10), ("lmax", 0, 6)],
    "lemma2_1": [("n", 2, 16), ("r", 1, 4), ("cap", 1, 6)],
    "prop2_2": [("n", 2, 16), ("r", 1, 4), ("cap", 1, 6)],
    "cor2_3": [("n", 2, 16), ("r", 1, 4), ("cap", 1, 6)],
    "thm2_4": [("n", 2, 16), ("r", 1, 4), ("cap", 1, 6)],
    "c_i": [("n", 2, 16), ("r", 1, 4), ("cap", 1, 6)],
    "lemma3_1": [("n", 2, 10), ("wtmax", 1, 6)],
    "lemma3_2_roundtrip": [("r", 1, 6), ("cap", 1, 6)],
    "lemma4_1": [("r", 1, 5), ("cap", 1, 4)],
    "pt_special": [("r", 1, 5), ("cap", 1, 4)],
    "kpow_rationality": [("k", 1, 6), ("n", 2, 10), ("vcap", 0, 8)],
    "k3_closed": [("n", 2, 10), ("vcap", 1, 8)],
    "chu_vandermonde": [("nmax", 1, 12)],
    "btt_3_13": [("n", 2, 10), ("cap", 1, 10)],
    "remark_qhs": [],
    "z_zbar_scaling": [("samples", 1, 500), ("seed", 0, 2**31)],
}
TAKES_Q = {"thm1_1", "reflection", "half_t_self_dual", "lemma2_1", "prop2_2",
           "cor2_3", "thm2_4", "c_i", "lemma3_1"}


def _raises(ident: str, params: dict) -> str:
    with pytest.raises(InvalidParams) as info:
        check_identity(ident, params)
    return str(info.value)


def test_every_check_is_in_the_table():
    assert list(INT_PARAMS) == list(list_identities())


@pytest.mark.parametrize("ident", list(INT_PARAMS))
def test_integer_parameters_are_range_checked_in_order(ident):
    spec = INT_PARAMS[ident]
    base = default_instances(ident)[0]
    for key, lo, hi in spec:
        for value in (lo - 1, hi + 1):
            assert _raises(ident, dict(base, **{key: value})) == f"{key}={value} outside [{lo}, {hi}]"
        missing = {k: v for k, v in base.items() if k != key}
        assert _raises(ident, missing) == f"missing or bad integer parameter {key!r}"
        for bad in ("x", "3", float(lo), True):
            assert _raises(ident, dict(base, **{key: bad})) == f"missing or bad integer parameter {key!r}"
    # with every parameter from the i-th on out of range, the i-th is named
    for i, (key, lo, hi) in enumerate(spec):
        bad = dict(base, **{k: h + 1 for k, _, h in spec[i:]})
        assert _raises(ident, bad) == f"{key}={hi + 1} outside [{lo}, {hi}]"


@pytest.mark.parametrize("ident", sorted(TAKES_Q))
def test_q_is_parsed_last(ident):
    base = default_instances(ident)[0]
    assert _raises(ident, dict(base, q="x/")) == "unparseable q spec 'x/'"
    assert _raises(ident, dict(base, q=2)) == "q must be a string spec"
    key, lo, hi = INT_PARAMS[ident][-1]
    assert _raises(ident, dict(base, q="x/", **{key: hi + 1})) == f"{key}={hi + 1} outside [{lo}, {hi}]"


def test_float_and_bool_parameters_are_not_truncated():
    # int() would run these at nmax = 2 and nmax = 1 while the report showed
    # the value as given
    for value in (2.9, True):
        assert _raises("chu_vandermonde", {"nmax": value}) == \
            "missing or bad integer parameter 'nmax'"
    assert check_identity("chu_vandermonde", {"nmax": 2}).params == {"nmax": 2}
