"""Command-line front end.

Exit codes: 0 success, 1 input or validation error (malformed arguments
included), 2 internal invariant violation (an oracle caught an
inconsistency; this is a bug, not bad input).  All reported numbers are exact integers and output bytes are deterministic
for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import cech as cech_mod
from .catalog import catalog_entries, catalog_run
from .cohomology import Overflow, cohomology
from .ext import ext_table, tilting_verdict
from .fan import Fan, InvariantViolation, fan_from_json, parse_divisor
from .frobenius import FrobeniusOrder, det_class, frobenius_decompose
from .structure import (
    blowup_bookkeeping_check,
    corank_oracle,
    delpezzo_jet_check,
    pbundle_check,
)
from .varieties import VARIETY_NAMES, named_variety

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INVARIANT = 2


class CliError(ValueError):
    pass


def report_json(payload) -> str:
    """Canonical JSON: insertion-ordered keys, exact integers, no floats."""
    return json.dumps(payload, separators=(",", ":"))


def _emit(args, payload, text_lines):
    if getattr(args, "json", False):
        print(report_json(payload))
    else:
        for line in text_lines:
            print(line)


def _registered(name: str) -> Fan:
    try:
        return named_variety(name)
    except KeyError as exc:
        raise CliError(str(exc)) from exc


def _load_fan(args) -> Fan:
    if getattr(args, "fan", None):
        path = Path(args.fan)
        if not path.exists():
            raise CliError(f"fan file not found: {path}")
        return fan_from_json(path.read_text())
    if getattr(args, "variety", None):
        return _registered(args.variety)
    raise CliError("need --fan FILE or --variety NAME")


def _order(args) -> FrobeniusOrder:
    return FrobeniusOrder(args.p, args.n)


def _cmd_fan_check(args) -> int:
    fan = _load_fan(args)
    payload = {
        "name": fan.name,
        "dim": fan.dim,
        "rays": len(fan.rays),
        "max_cones": len(fan.max_cones),
        "pic_rank": fan.pic_rank,
        "valid": True,
    }
    _emit(args, payload, [
        f"fan {fan.name or '(unnamed)'}: dim {fan.dim}, {len(fan.rays)} rays, "
        f"{len(fan.max_cones)} maximal cones, Picard rank {fan.pic_rank}: valid",
    ])
    return EXIT_OK


def _cmd_push(args) -> int:
    fan = _load_fan(args)
    order = _order(args)
    divisor = parse_divisor(fan, args.divisor)
    dec = frobenius_decompose(fan, divisor, order)
    payload = {
        "q": order.q,
        "summands": [
            {"class": list(cls.coords), "mult": mult}
            for cls, mult in dec.entries.items()
        ],
        "det": list(det_class(dec).coords),
        "certified": dec.certified,
    }
    lines = [f"F_{order.q}* O{tuple(divisor)} on {fan.name or 'fan'}:"]
    lines += [f"  O{cls.coords} ^ {mult}" for cls, mult in dec.entries.items()]
    lines.append(f"  det = O{det_class(dec).coords}  (certified: {dec.certified})")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_cohom(args) -> int:
    fan = _load_fan(args)
    divisor = parse_divisor(fan, args.divisor)
    h = cohomology(fan, divisor)
    _emit(args, {"dims": list(h.dims)}, [f"h^i O{tuple(divisor)} = {list(h.dims)}"])
    return EXIT_OK


def _cmd_ext(args) -> int:
    fan = _load_fan(args)
    report = ext_table(fan, _order(args))
    payload = {
        "dims": list(report.dims),
        "strong_exceptional": report.vanishing_above_zero,
    }
    _emit(args, payload, [
        f"Ext^i(F*O, F*O) dims = {list(report.dims)}",
        f"strong exceptional: {report.vanishing_above_zero}",
    ])
    return EXIT_OK


def _cmd_tilting(args) -> int:
    fan = _load_fan(args)
    verdict = tilting_verdict(fan, _order(args))
    payload = {
        "dims": list(verdict.dims),
        "strong_exceptional": verdict.strong_exceptional,
        "contains_collection": verdict.contains_collection,
        "quiver": [list(row) for row in verdict.quiver],
    }
    _emit(args, payload, [
        f"strong exceptional: {verdict.strong_exceptional}",
        f"contains full collection: {verdict.contains_collection}",
        f"quiver: {[list(r) for r in verdict.quiver]}",
    ])
    return EXIT_OK


def _cmd_catalog(args) -> int:
    if args.action == "list":
        payload = [{"key": e.key, "label": e.label} for e in catalog_entries()]
        _emit(args, payload, [e.key for e in catalog_entries()])
        return EXIT_OK
    result = catalog_run(args.p, args.n)
    lines = [f"catalog run p={args.p} n={args.n}"]
    for row in result["rows"]:
        if "error" in row:
            lines.append(f"  {row['key']}: ERROR {row['error']}")
        else:
            lines.append(
                f"  {row['key']}: dims {row['dims']} "
                f"vanishing={row['strong_exceptional']} "
                f"contains={row['contains_collection']}"
            )
    lines.append(f"summary: {result['summary']}")
    _emit(args, result, lines)
    return EXIT_OK


def _cmd_blowup_check(args) -> int:
    report = blowup_bookkeeping_check(args.p)
    payload = {
        "p": args.p,
        "corank": report.corank,
        "corank_oracle": corank_oracle(args.p),
        "det_discrepancy": list(report.det_discrepancy.coords),
    }
    _emit(args, payload, [
        f"p={args.p}: corank {report.corank} (oracle {corank_oracle(args.p)}), "
        f"determinant discrepancy O{report.det_discrepancy.coords}",
    ])
    return EXIT_OK


def _cmd_jets(args) -> int:
    report = delpezzo_jet_check(args.p, args.n, compute_rank=args.rank)
    payload = {
        "q": report.q,
        "p1": report.p1,
        "p2": report.p2,
        "dim_h0": report.dimH0,
        "jet_conditions": report.jet_conditions,
        "surjective_rank": report.surjective_rank,
        "passed": report.passed,
    }
    _emit(args, payload, [
        f"q={report.q}: p1={report.p1} p2={report.p2} dimH0={report.dimH0} "
        f"conditions={report.jet_conditions} rank={report.surjective_rank} "
        f"passed={report.passed}",
    ])
    return EXIT_OK


def _cmd_pbundle_check(args) -> int:
    base = _registered(args.base)
    divisor = parse_divisor(base, args.a)
    ok = pbundle_check(base, (base.zero_divisor(), divisor), _order(args))
    _emit(args, {"base": args.base, "a": list(divisor), "split_check": ok},
          [f"P1-bundle splitting check on P(O+O({args.a}))/{args.base}: {ok}"])
    return EXIT_OK if ok else EXIT_INVARIANT


def _cmd_cech(args) -> int:
    if args.action == "incidence":
        dims = cech_mod.incidence_cohomology(args.a, args.b, args.p)
        _emit(args, {"a": args.a, "b": args.b, "p": args.p, "dims": list(dims.dims)},
              [f"h^i O({args.a},{args.b}) on the incidence threefold = {list(dims.dims)}"])
        return EXIT_OK
    # validate: toric cross-check sweep plus concentration checks
    checked = mismatches = 0
    space2 = cech_mod.MultiProjSpace((2,))
    plane = named_variety("P2")
    for d in range(-6, 7):
        lhs = cech_mod.line_bundle_cohomology_fp(space2, (d,)).dims
        if lhs != cohomology(plane, (d, 0, 0)).dims:
            mismatches += 1
        checked += 1
    space11 = cech_mod.MultiProjSpace((1, 1))
    quadric = named_variety("P1xP1")
    for d1 in range(-6, 7):
        for d2 in range(-6, 7):
            lhs = cech_mod.line_bundle_cohomology_fp(space11, (d1, d2)).dims
            if lhs != cohomology(quadric, (d1, 0, d2, 0)).dims:
                mismatches += 1
            checked += 1
    conc = all(
        cech_mod.concentration_check(a, b, p, m)
        for (a, b) in ((-1, 0), (0, -1))
        for p in (2, 3)
        for m in (1, 2)
    )
    agree = mismatches == 0
    _emit(args, {"checked": checked, "agree": agree, "concentration": conc},
          [f"cross-checked {checked} multidegrees against the toric engine "
           f"({mismatches} mismatches); concentration checks: {conc}"])
    return EXIT_OK if (agree and conc) else EXIT_INVARIANT


class _Parser(argparse.ArgumentParser):
    """An argument parser whose malformed arguments exit EXIT_INPUT, not
    argparse's 2, which this CLI keeps for invariant violations; its
    subparsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="toricfrob",
        description="Frobenius pushforwards of line bundles on smooth toric varieties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fan=True, order=True):
        if fan:
            p.add_argument("--fan", help="fan JSON file")
            p.add_argument("--variety", help=f"built-in variety ({', '.join(VARIETY_NAMES)})")
        if order:
            p.add_argument("--p", type=int, required=True, help="prime")
            p.add_argument("--n", type=int, default=1, help="Frobenius iterate (default 1)")
        p.add_argument("--json", action="store_true", help="emit canonical JSON")

    p_fan = sub.add_parser("fan", help="fan utilities")
    fan_sub = p_fan.add_subparsers(dest="action", required=True)
    p_fan_check = fan_sub.add_parser("check", help="validate a fan")
    add_common(p_fan_check, order=False)
    p_fan_check.set_defaults(func=_cmd_fan_check)

    p_push = sub.add_parser("push", help="decompose a Frobenius pushforward")
    add_common(p_push)
    p_push.add_argument("--divisor", default="0", help='CSV coefficients, or "K", "-K", "0"')
    p_push.set_defaults(func=_cmd_push)

    p_cohom = sub.add_parser("cohom", help="line bundle cohomology")
    add_common(p_cohom, order=False)
    p_cohom.add_argument("--divisor", default="0")
    p_cohom.set_defaults(func=_cmd_cohom)

    p_ext = sub.add_parser("ext", help="Ext table of the pushforward")
    add_common(p_ext)
    p_ext.set_defaults(func=_cmd_ext)

    p_tilt = sub.add_parser("tilting", help="tilting verdict")
    add_common(p_tilt)
    p_tilt.set_defaults(func=_cmd_tilting)

    p_cat = sub.add_parser("catalog", help="toric Fano threefold survey")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    p_cat_list = cat_sub.add_parser("list")
    p_cat_list.add_argument("--json", action="store_true")
    p_cat_list.set_defaults(func=_cmd_catalog)
    p_cat_run = cat_sub.add_parser("run")
    p_cat_run.add_argument("--p", type=int, required=True)
    p_cat_run.add_argument("--n", type=int, default=1)
    p_cat_run.add_argument("--json", action="store_true")
    p_cat_run.set_defaults(func=_cmd_catalog)

    p_blow = sub.add_parser("blowup-check", help="blow-up determinant bookkeeping")
    p_blow.add_argument("--p", type=int, required=True)
    p_blow.add_argument("--json", action="store_true")
    p_blow.set_defaults(func=_cmd_blowup_check)

    p_jets = sub.add_parser("jets", help="plane jet dimension counts")
    p_jets.add_argument("--p", type=int, required=True)
    p_jets.add_argument("--n", type=int, default=1)
    p_jets.add_argument("--rank", action="store_true", help="compute the exact jet rank")
    p_jets.add_argument("--json", action="store_true")
    p_jets.set_defaults(func=_cmd_jets)

    p_pb = sub.add_parser("pbundle-check", help="P1-bundle splitting check")
    p_pb.add_argument("--base", required=True)
    p_pb.add_argument("--a", required=True, help="divisor on the base (CSV or K/-K/0)")
    p_pb.add_argument("--p", type=int, required=True)
    p_pb.add_argument("--n", type=int, default=1)
    p_pb.add_argument("--json", action="store_true")
    p_pb.set_defaults(func=_cmd_pbundle_check)

    p_cech = sub.add_parser("cech", help="F_p cohomology on products of projective spaces")
    cech_sub = p_cech.add_subparsers(dest="action", required=True)
    p_inc = cech_sub.add_parser("incidence")
    p_inc.add_argument("--a", type=int, required=True)
    p_inc.add_argument("--b", type=int, required=True)
    p_inc.add_argument("--p", type=int, required=True)
    p_inc.add_argument("--json", action="store_true")
    p_inc.set_defaults(func=_cmd_cech)
    p_val = cech_sub.add_parser("validate")
    p_val.add_argument("--json", action="store_true")
    p_val.set_defaults(func=_cmd_cech)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (Overflow, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
