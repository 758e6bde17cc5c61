"""F_p entry points reject a p for which their answer would be wrong."""

import time

import pytest

from toricfrob import (
    FrobeniusOrder,
    LaurentComplex,
    MultiProjSpace,
    incidence_cohomology,
)
from toricfrob.cech import Poly, hypercohomology_fp
from toricfrob.cli import main
from toricfrob import linalg
from toricfrob.linalg import check_prime_field, is_prime, rank_mod_p
from toricfrob.structure import _jet_stack


def test_incidence_rejects_composite_p():
    with pytest.raises(ValueError, match="not prime"):
        incidence_cohomology(2, -4, 4)
    assert incidence_cohomology(2, -4, 3).dims == (0, 0, 0, 0)


def test_cli_incidence_composite_p_exits_1(capsys):
    code = main(["cech", "incidence", "--a", "2", "--b", "-4", "--p", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "not prime" in captured.err


def test_rank_mod_p_rejects_int64_overflow():
    # rank 1 over F_P: the second row is y times the first
    big = 2**61 - 1
    x = 2**60 + 12345
    y = 2**59 + 999
    with pytest.raises(ValueError, match="too large"):
        rank_mod_p([[1, x], [y, x * y % big]], big)


def test_rank_mod_p_rejects_composite_p():
    # Z/p is no field for these p, so elimination could divide by a zero divisor;
    # the primality verdict is cached, but a refusal must recur on every call
    for p in (1, 4, 9, 91, 91):
        with pytest.raises(ValueError, match="not prime"):
            rank_mod_p([[2, 1], [1, 3]], p)
    assert rank_mod_p([[2, 1], [1, 3]], 5) == 1
    assert rank_mod_p([[2, 1], [1, 3]], 5) == 1


def test_prime_is_proved_once_per_p(monkeypatch):
    real, calls = linalg.is_prime, []
    monkeypatch.setattr(linalg, "is_prime", lambda n: calls.append(n) or real(n))
    check_prime_field.cache_clear()
    for _ in range(3):
        check_prime_field(32749)
        with pytest.raises(ValueError, match="not prime"):
            check_prime_field(91)
    assert calls == [32749, 91, 91, 91]


def test_jet_block_rejects_composite_p():
    with pytest.raises(ValueError, match="not prime"):
        _jet_stack((3,), 2, 9, (1, 1, 1))[0]
    assert _jet_stack((3,), 2, 3, (1, 1, 1))[0].shape == (10, 6)


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_agrees_with_trial_division():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # the least strong pseudoprimes to the bases 2, 3, 5, 7 and to every
    # prime base up to 23
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)
    with pytest.raises(ValueError):
        is_prime(2**64 + 13)


def test_huge_prime_frobenius_order():
    assert FrobeniusOrder(2**61 - 1).q == 2**61 - 1


def test_cli_incidence_huge_prime_exits_1_promptly(capsys):
    start = time.perf_counter()
    code = main(["cech", "incidence", "--a", "2", "--b", "-4",
                 "--p", str(2**61 - 1)])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 5
    assert code == 1
    assert captured.out == ""
    assert "too large" in captured.err


@pytest.mark.parametrize("b", ["-99999", "0"])
def test_cli_incidence_huge_twist_exits_1_promptly(capsys, b):
    start = time.perf_counter()
    code = main(["cech", "incidence", "--a", "99999", "--b", b, "--p", "3"])
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 2
    assert code == 1
    assert captured.out == ""
    assert "basis monomials" in captured.err


def test_cli_incidence_huge_twist_checks_p_first(capsys):
    code = main(["cech", "incidence", "--a", "99999", "--b", "0", "--p", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "not prime" in captured.err


def test_malformed_cech_monomial_refused():
    # on P2 x P2 a monomial needs two exponent tuples of length 3; this one,
    # as a map O(0,0) -> O(1,0), was read as x_0 through its flattened row
    space = MultiProjSpace((2, 2))
    terms = (((0, 0),), ((1, 0),))
    with pytest.raises(ValueError, match="exponent tuple"):
        LaurentComplex(
            space=space, terms=terms, maps=(((Poly({((1, 0, 0, 0), (0, 0)): 1}),),),)
        )
    with pytest.raises(ValueError, match="1 x 1 matrix"):
        LaurentComplex(space=space, terms=terms, maps=(((Poly({}), Poly({})),),))
    x0 = Poly({((1, 0, 0), (0, 0, 0)): 1})
    cx = LaurentComplex(space=space, terms=terms, maps=(((x0,),),))
    assert hypercohomology_fp(cx, 3) == {1: 2}
