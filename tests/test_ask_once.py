"""Each question is asked once: one certified decomposition per verdict, one
elimination per distinct jet block, and checks that can fail."""

import sys
from collections import Counter

import numpy as np

from toricfrob import (
    FrobeniusOrder,
    catalog_run,
    delpezzo_jet_check,
    ext_table,
    named_variety,
    s2d2_identity_check,
    tilting_verdict,
)
from toricfrob import frobenius as frobenius_mod
from toricfrob import structure as structure_mod
from toricfrob.cli import main
from toricfrob.linalg import rank_mod_p
from toricfrob.structure import _jet_stack


def _count_decompositions(monkeypatch):
    """Wrap frobenius_decompose at every module binding; return the call log."""
    real = frobenius_mod.frobenius_decompose
    calls = []

    def counting(*args, **kwargs):
        dec = real(*args, **kwargs)
        calls.append(dec)
        return dec

    for name, mod in list(sys.modules.items()):
        if name == "toricfrob" or name.startswith("toricfrob."):
            for attr, value in list(vars(mod).items()):
                if value is real:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


def test_catalog_run_decomposes_once_per_entry(monkeypatch):
    calls = _count_decompositions(monkeypatch)
    result = catalog_run(2)
    assert len(calls) == 12
    assert all(row["certified"] for row in result["rows"])


def test_cli_tilting_decomposes_once(monkeypatch, capsys):
    calls = _count_decompositions(monkeypatch)
    assert main(["tilting", "--variety", "F1", "--p", "3"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_tilting_verdict_carries_ext_dims():
    fan = named_variety("P(O+O(2))/P2")
    order = FrobeniusOrder(3)
    verdict = tilting_verdict(fan, order)
    assert verdict.dims == ext_table(fan, order).dims == (1104, 0, 3, 0)
    assert not verdict.strong_exceptional


def _dense_jet_rank(report, p, point=(1, 1, 1)):
    """Rank of the whole block-diagonal jet matrix, assembled densely."""
    q = report.q
    twists = [(3 * q - 3, 1), (2 * q - 3, report.p1), (q - 3, report.p2)]
    blocks = []
    for d, mult in twists:
        if mult:
            blocks.extend([_jet_stack((d,), q - 2, p, point)[0]] * mult)
    full = np.zeros(
        (sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)),
        dtype=np.int64,
    )
    r0 = c0 = 0
    for b in blocks:
        full[r0 : r0 + b.shape[0], c0 : c0 + b.shape[1]] = b
        r0 += b.shape[0]
        c0 += b.shape[1]
    return rank_mod_p(full, p)


def test_jet_rank_matches_dense_elimination():
    for p, n in ((5, 1), (7, 1), (2, 2), (3, 0)):
        report = delpezzo_jet_check(p, n, compute_rank=True)
        assert report.surjective_rank == _dense_jet_rank(report, p), (p, n)


def test_s2d2_identity_consults_divided_powers(monkeypatch, P2):
    order = FrobeniusOrder(3)
    assert s2d2_identity_check(P2, (1, 0, 0), order)
    real = structure_mod._divided_multiset

    def lossy(classes, m):
        out = Counter(real(classes, m))
        out[next(iter(out))] -= 1
        return +out

    monkeypatch.setattr(structure_mod, "_divided_multiset", lossy)
    assert not s2d2_identity_check(P2, (1, 0, 0), order)
