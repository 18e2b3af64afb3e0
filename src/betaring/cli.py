"""Command-line surface: catalogs, ring operations, and check suites.

Exit codes: 0 success, 1 computation failure (a JSON error object in
--json mode), 2 usage errors.  Output is deterministic for a fixed
configuration; class names use the "S<n>:<label>" scheme, for which
`catalog` prints the authoritative map.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import checks
from .adams import psi_partition, psi_upper, solve_psi_K
from .bring import BElement, diagonal, eval_burnside, eval_z, product, star
from .burnside import BurnsideElement, group_catalog
from .catalog import Ambient, get_catalog, table_of_marks
from .config import set_config
from .errors import BetaringError
from .perms import PermGroup
from .symfunc import lin
from .witt import WittVector

NAMED_GROUPS = {
    "C2": lambda: PermGroup.cyclic(2),
    "C3": lambda: PermGroup.cyclic(3),
    "C4": lambda: PermGroup.cyclic(4),
    "C5": lambda: PermGroup.cyclic(5),
    "C6": lambda: PermGroup.cyclic(6),
    "S3": lambda: PermGroup.symmetric(3),
    "S4": lambda: PermGroup.symmetric(4),
    "V4": checks.klein_group,
}


def _ints(option: str, text: str, form: str, sep: str = ",", prefix: str = "") -> list[int]:
    """The integers of text split at sep, each with prefix stripped;
    BetaringError naming the option, the expected form and the text."""
    try:
        return [int(part.lstrip(prefix)) for part in text.split(sep)]
    except ValueError:
        raise BetaringError(f"{option} expects {form}, got {text!r}") from None


def _parse_ambient(text: str) -> Ambient:
    return Ambient.prod(_ints("--ambient", text, "S<n> or S<p>xS<q>", "x", "Ss"))


def _parse_class(text: str) -> tuple[int, str]:
    ambient, _, label = text.partition(":")
    if not label or not ambient.lstrip("Ss").isdigit():
        raise BetaringError(f"expected S<n>:<label>, got {text!r}")
    return int(ambient.lstrip("Ss")), label


def _class_element(text: str) -> BElement:
    n, label = _parse_class(text)
    return BElement.basis(n, label)


def _emit(args, payload, text: str):
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        print(text)


def _cmd_catalog(args):
    cat = get_catalog(_parse_ambient(args.ambient))
    payload = cat.to_json()
    lines = [f"{cat.ambient.descriptor()}: {len(cat.classes)} subgroup classes"]
    for cls in cat.classes:
        alias = f" (aka {', '.join(cls.aliases)})" if cls.aliases else ""
        lines.append(
            f"  [{cls.index:>2}] {cls.label:<14}{alias}  order={cls.order}"
            f" normalizer={cls.norm_order} orbits={list(cls.ptype)}"
        )
    _emit(args, payload, "\n".join(lines))


def _cmd_marks(args):
    tom = table_of_marks(_parse_ambient(args.ambient))
    payload = {
        "ambient": tom.ambient.descriptor(),
        "classes": [cls.label for cls in tom.classes],
        "matrix": [list(row) for row in tom.matrix],
    }
    width = max(len(cls.label) for cls in tom.classes)
    lines = [f"table of marks for {tom.ambient.descriptor()}"]
    for cls, row in zip(tom.classes, tom.matrix):
        lines.append(f"  {cls.label:<{width}} " + " ".join(f"{v:>4}" for v in row))
    _emit(args, payload, "\n".join(lines))


def _cmd_prod(args):
    result = product(_class_element(args.left), _class_element(args.right))
    _emit(args, result.to_json(), repr(result))


def _cmd_diag(args):
    result = diagonal(_class_element(args.cls))
    _emit(args, result.to_json(), repr(result))


def _cmd_star(args):
    result = star(_class_element(args.left), _class_element(args.right))
    _emit(args, result.to_json(), repr(result))


def _cmd_psi(args):
    if args.partition is not None:
        parts = _ints("--partition", args.partition, "comma-separated parts like 2,1")
        result = psi_partition(parts)
        name = f"Psi_({args.partition})"
    else:
        result = psi_upper(args.k)
        name = f"Psi^{args.k}"
    _emit(args, result.to_json(), f"{name} = {result!r}")


def _cmd_psik(args):
    table = solve_psi_K(args.n)
    lines = [f"Adams class operations for S{args.n} (coefficients over the class basis)"]
    for i, cls in enumerate(table.catalog.classes):
        lines.append(f"  Psi_{cls.label:<12} -> {table.element(i)!r}")
    _emit(args, table.to_json(), "\n".join(lines))


def _cmd_lin(args):
    if args.psi is not None:
        element = psi_upper(args.psi)
    else:
        element = _class_element(args.cls)
    image = lin(element)
    if args.basis != "p":
        image = image.convert(args.basis)
    _emit(args, image.to_json(), repr(image))


def _cmd_evalz(args):
    value = eval_z(_class_element(args.cls), args.r)
    _emit(args, {"value": value}, str(value))


def _cmd_evalg(args):
    group = NAMED_GROUPS[args.group]()
    cat = group_catalog(group)
    if args.coords:
        coords = _ints("--coords", args.coords, "comma-separated integers like -1,0")
    else:
        coords = [0] * len(cat.classes)
        coords[0] = 1  # the free transitive set [G/e]
    x = BurnsideElement(cat, coords)
    result = eval_burnside(_class_element(args.cls), x)
    _emit(args, result.to_json(), f"{args.cls} on {x!r} = {result!r}")


def _cmd_witt(args):
    a = WittVector([Fraction(t) for t in args.a.split(",")], args.prec)
    b = WittVector([Fraction(t) for t in args.b.split(",")], args.prec)
    result = a + b if args.op == "add" else a * b
    payload = {
        "op": args.op,
        "result": result.to_json(),
        "ghost": [str(g) for g in result.ghost()],
    }
    _emit(args, payload, f"{result!r}\n  ghost: {[str(g) for g in result.ghost()]}")


def _cmd_check(args):
    names = args.suites or sorted(checks.SUITES)
    results = checks.run_suites(names, n=args.n)
    failed = sum(1 for reports in results.values() for r in reports if r["status"] == "fail")
    if args.json:
        print(json.dumps(results, indent=2, default=str))
    else:
        for name, reports in results.items():
            for r in reports:
                extra = f"  [{r['witness']}]" if r["witness"] else ""
                print(f"{r['status'].upper()} {name} :: {r['identity']}{extra}")
        print(f"{'OK' if not failed else 'FAILED'}: {failed} failing checks")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betaring",
        description="Exact Burnside-class and symmetric-function arithmetic.",
    )
    parser.add_argument("--max-degree", type=int, default=None, help="degree cap (<= 7)")
    parser.add_argument("--catalog-dir", default=None, help="catalog cache directory")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="dump the subgroup-class catalog of an ambient")
    p.add_argument("--ambient", required=True, help="S4 or S2xS3 style descriptor")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("marks", help="print a table of marks")
    p.add_argument("--ambient", required=True)
    p.set_defaults(func=_cmd_marks)

    p = sub.add_parser("prod", help="product of two basis classes")
    p.add_argument("--left", required=True, help="class as S<n>:<label>")
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_prod)

    p = sub.add_parser("diag", help="restriction diagonal of a basis class")
    p.add_argument("--class", dest="cls", required=True)
    p.set_defaults(func=_cmd_diag)

    p = sub.add_parser("star", help="composition of two basis classes")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_star)

    p = sub.add_parser("psi", help="Adams element Psi^k or Psi_partition")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--partition", default=None, help="comma-separated parts")
    p.set_defaults(func=_cmd_psi)

    p = sub.add_parser("psiK", help="solve the Adams class operations for S_n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_psik)

    p = sub.add_parser("lin", help="symmetric-function image of a class")
    p.add_argument("--class", dest="cls", default=None)
    p.add_argument("--psi", type=int, default=None, help="use Psi^k instead of a class")
    p.add_argument("--basis", choices=("e", "h", "p"), default="p")
    p.set_defaults(func=_cmd_lin)

    p = sub.add_parser("evalz", help="value of a class operation on the integers")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_evalz)

    p = sub.add_parser("evalg", help="value of a class operation on A(G)")
    p.add_argument("--class", dest="cls", required=True)
    p.add_argument("--group", choices=sorted(NAMED_GROUPS), required=True)
    p.add_argument(
        "--coords", default=None, help="comma-separated coordinates over the A(G) basis, e.g. -1,0"
    )
    p.set_defaults(func=_cmd_evalg)

    p = sub.add_parser("witt", help="Witt vector arithmetic")
    p.add_argument("--op", choices=("add", "mul"), required=True)
    p.add_argument("--a", required=True, help="comma-separated coefficients")
    p.add_argument("--b", required=True)
    p.add_argument("--prec", type=int, default=None)
    p.set_defaults(func=_cmd_witt)

    p = sub.add_parser("check", help="run verification suites")
    p.add_argument("suites", nargs="*", help=f"suites: {', '.join(sorted(checks.SUITES))}")
    p.add_argument("--n", type=int, default=None, help="depth parameter where applicable")
    p.set_defaults(func=_cmd_check)

    return parser


def _attach_coords(argv: list[str]) -> list[str]:
    """`--coords -1,0` as `--coords=-1,0`: argparse takes a separate value
    that starts with '-' and is not a plain number for an option."""
    out, k = [], 0
    while k < len(argv):
        if argv[k] == "--coords" and k + 1 < len(argv) and not argv[k + 1].startswith("--"):
            out.append(f"--coords={argv[k + 1]}")
            k += 2
        else:
            out.append(argv[k])
            k += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_coords(sys.argv[1:] if argv is None else list(argv)))
    overrides = {}
    if args.max_degree is not None:
        overrides["max_degree"] = args.max_degree
    if args.catalog_dir is not None:
        overrides["catalog_dir"] = args.catalog_dir
    if overrides:
        try:
            set_config(**overrides)
        except ValueError as exc:
            parser.error(str(exc))
    if args.command == "check":
        try:
            checks._check_request(args.suites, args.n)
        except (KeyError, ValueError) as exc:
            parser.error(exc.args[0])
    if args.command == "psi" and args.k is None and args.partition is None:
        parser.error("psi needs --k or --partition")
    if args.command == "lin" and args.cls is None and args.psi is None:
        parser.error("lin needs --class or --psi")
    try:
        result = args.func(args)
    except (BetaringError, KeyError, ValueError, OverflowError, ZeroDivisionError) as exc:
        if args.json:
            print(json.dumps({"error": str(exc), "type": type(exc).__name__}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return int(result or 0)


if __name__ == "__main__":
    sys.exit(main())
