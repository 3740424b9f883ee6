"""Symbolic FLOP polynomials and compile-time shortlisting."""

import pytest

from repro.core.symbolic import flop_polynomial, possibly_cheapest
from repro.expressions.registry import get_expression
from repro.expressions.shapes import SizeExpr, dim_symbols
from repro.service.engine import flops_dim_cap


def test_size_expr_arithmetic_and_size_hint():
    n, k = dim_symbols(2)
    p = n * (n + 1) * k  # the SYRK FLOP formula
    assert p.size_hint((3, 5)) == 60
    # Exact far beyond float64's 2**53 integer range.
    big = 2**40 + 1
    assert p.size_hint((big, 3)) == big * (big + 1) * 3


def test_expanded_orders_terms_by_degree():
    d0, d1, _ = dim_symbols(3)
    p = 2 * d0 * d0 * d1 + 3 * d1 + 1
    assert p.expanded(("d0", "d1", "d2")) == "2*d0^2*d1 + 3*d1 + 1"
    assert SizeExpr.constant(0).expanded(("d0",)) == "0"
    with pytest.raises(ValueError):
        p.expanded(("d0",))


def test_flop_polynomial_matches_concrete_flops():
    algorithms = get_expression("aatb").algorithms()
    instance = (31, 57, 83)
    for algorithm in algorithms:
        poly = flop_polynomial(algorithm)
        assert isinstance(poly, SizeExpr)
        assert poly.size_hint(instance) == int(algorithm.flops(instance))


def test_possibly_cheapest_finds_known_crossover():
    # With d1 = d2 = 400: f(syrk-based) = 1200 d0^2 + 400 d0 and
    # f(right-assoc) = 640000 d0, equal exactly at d0 = 533; gemm+gemm
    # variants (1600 d0^2) can never win.
    algorithms = get_expression("aatb").algorithms()
    result = possibly_cheapest(
        algorithms, {1: 400, 2: 400}, (20, 20, 20), (1200, 1200, 1200)
    )
    assert result.exact
    names = [algorithms[i].name for i in result.certain]
    assert names == [
        "aatb-1:syrk+symm",
        "aatb-2:syrk+copy+gemm",
        "aatb-5:gemm+gemm-right",
    ]
    assert result.candidates == result.certain
    # Below the crossover the SYRK pair wins, above it the right-assoc.
    below = possibly_cheapest(
        algorithms, {1: 400, 2: 400}, (20, 20, 20), (532, 1200, 1200)
    )
    assert [algorithms[i].name for i in below.certain] == [
        "aatb-1:syrk+symm",
        "aatb-2:syrk+copy+gemm",
    ]
    above = possibly_cheapest(
        algorithms, {1: 400, 2: 400}, (534, 20, 20), (1200, 1200, 1200)
    )
    assert [algorithms[i].name for i in above.certain] == [
        "aatb-5:gemm+gemm-right"
    ]


def test_possibly_cheapest_tie_at_exact_crossover():
    algorithms = get_expression("aatb").algorithms()
    result = possibly_cheapest(
        algorithms, {1: 400, 2: 400}, (533, 20, 20), (533, 1200, 1200)
    )
    # All three tie at exactly d0 = 533.
    assert [algorithms[i].name for i in result.certain] == [
        "aatb-1:syrk+symm",
        "aatb-2:syrk+copy+gemm",
        "aatb-5:gemm+gemm-right",
    ]


def test_possibly_cheapest_handles_degenerate_axis_in_sampled_mode():
    # One free dim pinned via equal bounds (not `fixed`) while the
    # remaining space is large enough to force the sampled path.
    algorithms = get_expression("aatb").algorithms()
    result = possibly_cheapest(
        algorithms, {}, (92, 20, 20), (92, 1200, 1200)
    )
    assert not result.exact
    assert result.certain  # and, regression: no ZeroDivisionError


def test_possibly_cheapest_validates_input():
    algorithms = get_expression("aatb").algorithms()
    with pytest.raises(ValueError):
        possibly_cheapest(algorithms, {9: 4}, (20,) * 3, (30,) * 3)
    with pytest.raises(ValueError):
        possibly_cheapest([], {}, (20,), (30,))


@pytest.mark.parametrize(
    "family,dims",
    [
        ("chain4", (1154104, 1154104, 1154107, 1154105, 1154105)),
        ("sum3", (1048574, 1, 1, 1048575, 1048574, 1048572)),
    ],
)
def test_possibly_cheapest_exact_at_near_ties(family, dims):
    # Regression: float64 evaluation collapsed these near-ties and
    # reported a wrong argmin with ``exact=True``.  Every dim is fixed
    # and within the service's dim cap.
    algorithms = get_expression(family).algorithms()
    assert max(dims) <= flops_dim_cap(algorithms, len(dims))
    result = possibly_cheapest(algorithms, dict(enumerate(dims)), dims, dims)
    flops = [algorithm.flops(dims) for algorithm in algorithms]
    argmin = tuple(i for i, f in enumerate(flops) if f == min(flops))
    assert result.exact
    assert result.certain == argmin
    assert result.candidates == argmin
