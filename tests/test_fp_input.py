"""F_p entry points reject a p for which their answer would be wrong."""

import time

import pytest

from toricfrob import (
    FrobeniusOrder,
    MultiProjSpace,
    incidence_cohomology,
    line_bundle_cohomology_fp,
)
from toricfrob.cech import _map_rank_mod_p
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


@pytest.mark.parametrize("args", [(4, -5, 3.0), (True, -5, 3), (4.0, -5, 3), (4, -5.0, 3),
                                  (4, -5, True), (4, -5, "3")])
def test_incidence_rejects_non_integer_input(args):
    # 3.0 and True once met the cached verdicts of 3 and 1, and a float or a
    # bool multidegree failed inside numpy; each is now refused by name
    with pytest.raises(ValueError, match="is not an integer"):
        incidence_cohomology(*args)
    assert incidence_cohomology(4, -5, 3).dims == (0, 11, 1, 0)


def test_prime_field_check_reads_p_as_an_integer():
    check_prime_field(3)
    for bad in (3.0, True, 2.5, "3", None):
        with pytest.raises(ValueError, match="is not an integer"):
            check_prime_field(bad)
        with pytest.raises(ValueError, match="is not an integer"):
            rank_mod_p([[1, 0], [0, 1]], bad)
    assert rank_mod_p([[1, 0], [0, 1]], 3) == 2


@pytest.mark.parametrize("dims", [(1.5,), (2.0,), (True, True), ("2",), (2, 2.0)])
def test_factor_dimensions_must_be_integers(dims):
    # 1.5 and 2.0 were once accepted and failed later in numpy, (True, True)
    # was answered as P1 x P1, and "2" raised TypeError; each is now refused
    with pytest.raises(ValueError, match="factor dimension entry"):
        MultiProjSpace(dims)
    space = MultiProjSpace([2, 1])
    assert space.factor_dims == (2, 1) and all(type(n) is int for n in space.factor_dims)
    assert line_bundle_cohomology_fp(space, (1, 0)).dims == (3, 0, 0, 0)


def test_multidegree_entries_must_be_integers():
    space = MultiProjSpace((1, 1))
    for bad in ((1.0, 0), (True, 0), (0, "1")):
        with pytest.raises(ValueError, match="multidegree entry"):
            line_bundle_cohomology_fp(space, bad)
        with pytest.raises(ValueError, match="multidegree entry"):
            _map_rank_mod_p(bad, (2, 1), 0, 3)
    assert line_bundle_cohomology_fp(space, (1, 0)).dims == (2, 0, 0)
