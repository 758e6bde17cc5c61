"""F_p entry points reject a p for which their answer would be wrong."""

import pytest

from toricfrob import incidence_cohomology
from toricfrob.cli import main
from toricfrob.linalg import rank_mod_p


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
