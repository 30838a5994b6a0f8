from hypothesis import given, settings, strategies as st

from syzygy import poly


def expand(factors, p):
    out = [1]
    for f, m in factors:
        for _ in range(m):
            out = poly.mul(out, f, p)
    return out


def test_factor_t_squared():
    assert poly.factor([0, 0, 1], 32003) == [([0, 1], 2)]


def test_factor_t2_plus_1_mod5():
    got = poly.factor([1, 0, 1], 5)
    assert got == [([2, 1], 1), ([3, 1], 1)]
    assert expand(got, 5) == [1, 0, 1]


def test_factor_irreducible_mod2():
    f = [1, 1, 1]
    assert poly.factor(f, 2) == [(f, 1)]


def test_factor_power_of_p_multiplicity():
    # (t+1)^2 mod 2 = t^2 + 1, derivative vanishes
    assert poly.factor([1, 0, 1], 2) == [([1, 1], 2)]


@given(st.sampled_from([2, 3, 5, 32003]), st.lists(st.integers(0, 50), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_factor_reexpands(p, coeffs):
    f = poly.normalize(coeffs, p)
    if poly.degree(f) < 1:
        return
    factors = poly.factor(f, p)
    lead = f[-1]
    assert poly.scale(expand(factors, p), lead, p) == f
    for g, _ in factors:
        # irreducibility certificate: factoring again returns the factor itself
        assert poly.factor(g, p) == [(g, 1)]
