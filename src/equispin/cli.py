"""Command-line surface.

Subcommands: ``spin``, ``quotient``, ``kvector``, ``verdict``, ``enumerate``,
``prop41``, ``selftest``.  Each is one row of ``COMMANDS``: a payload
builder, which turns the parsed arguments into a JSON-compatible dict (for a
text ``verdict``, the verdict record), and a text renderer for it.  ``main``
looks the command up and prints the payload through ``_emit``, as JSON or as
text.  The four dataset commands build their payload per dataset file; with
``--batch DIR`` they build one per ``*.json`` file in DIR, a per-file
``error`` entry standing in for a file that fails.

Exit codes: 0 for a completed evaluation (a Contradiction outcome is a
successful computation, not an error), 1 for a self-test with a failed item,
2 for invalid input (any ``ValueError``), 3 for I/O failures (any
``OSError``).  Reports are byte-deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from . import rigidity
from .dataset import FixedPointDataset, ManifoldInvariants, class_counts, fermat_quartic, parse_dataset
from .lefschetz import (
    NonIntegralDefectError,
    k_vector,
    orbit_space_p3,
    spin_index,
    spin_number_tuple,
)
from .repring import InstanceParameters

# ``numeric_estimate`` prints at least 6 significant digits: log2(10^6) > 19.9 bits
MIN_PRECISION_BITS = 20
# advisory digits only; mpmath's cosines take minutes far above this at large p
MAX_PRECISION_BITS = 4096


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)`` without the cycles its indented encoder leaves.

    Takes dicts with ``str`` keys, lists, tuples, ``str``, ``int``, ``bool`` and None; any other
    value or key raises ``TypeError`` (a key in ``sorted`` or in the string encoder).
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_encode_str(k) + ": " + _json_text(value[k], inner) for k in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(payload, fmt: str, render_text) -> None:
    if fmt == "json":
        print(_json_text(payload))
    else:
        render_text(payload)


def _load_dataset(path) -> FixedPointDataset:
    with open(path, "rb") as fh:
        return parse_dataset(fh.read())


# -- dataset commands: payload builders and text renderers ------------------------


def _spin_payload(args, dataset: FixedPointDataset) -> dict:
    spins = spin_number_tuple(dataset)
    if not 0 <= args.power <= dataset.p - 1:
        raise ValueError(f"power must lie in 0..{dataset.p - 1}")
    # real, since spin_number_tuple checked it; an irrational one is printed at conductor p
    spin = rigidity.classify_spin(spins, args.power, args.precision)
    return {
        "power": args.power,
        "spin": (
            {"rational": str(spin.value)}
            if spin.rational
            else {"conductor": dataset.p, "coeffs": [str(c) for c in spins.coordinates(args.power)]}
        ),
        "classification": rigidity.spin_class_dict(spin),
    }


def _render_spin(p: dict) -> None:
    print(f"power {p['power']}: {json.dumps(p['spin'], sort_keys=True)}")
    print(f"classification: {json.dumps(p['classification'], sort_keys=True)}")


def _quotient_payload(args, dataset: FixedPointDataset) -> dict:
    return rigidity.quotient_dict(orbit_space_p3(class_counts(dataset)))


def _quotient_text(q: dict) -> str:
    return (
        f"signature {q['sigma']}, euler {q['euler']}, b+ {q['b_plus']}, "
        f"b- {q['b_minus']}, integral {q['integral']}"
    )


def _kvector_payload(args, dataset: FixedPointDataset) -> dict:
    try:
        kv = k_vector(spin_number_tuple(dataset))
        return {"k_vector": list(kv.k), "error": None}
    except NonIntegralDefectError as exc:
        return {"k_vector": None, "error": str(exc)}


def _render_kvector(p: dict) -> None:
    if p["error"]:
        print(f"inconsistent dataset: {p['error']}")
    else:
        print(f"defect vector: {tuple(p['k_vector'])}")


def _verdict_payload(args, dataset: FixedPointDataset):
    """The JSON report, or for text the verdict record itself: the text shows no lift sweep."""
    v = rigidity.verdict(dataset, args.precision)
    return rigidity.verdict_report(v) if args.format == "json" else v


def _render_verdict_text(v: rigidity.RigidityVerdict) -> None:
    print(f"outcome: {v.outcome}")
    value = v.spin.value if v.spin.rational else f"irrational ({v.spin.estimate})"
    print(f"spin number: {value} [{v.spin.sign}]")
    if v.k is not None:
        print(f"defect vector: {v.k.k}")
    if v.quotient:
        print(f"orbit space: {_quotient_text(rigidity.quotient_dict(v.quotient))}")
    if v.vanishing:
        print(f"vanishing check: kernel rank {v.vanishing.kernel_rank}, sw {v.vanishing.sw_value}")
    for r in v.reasons:
        print(f"  reason [{r.anchor}]: {r.detail}")
    for r in v.notes:
        print(f"  note [{r.anchor}]: {r.detail}")


def _per_dataset(build_one):
    """Payload builder running ``build_one`` on the input file or on every ``--batch`` file."""

    def build(args) -> dict:
        if not MIN_PRECISION_BITS <= args.precision <= MAX_PRECISION_BITS:
            low = args.precision < MIN_PRECISION_BITS
            bound = f"at least {MIN_PRECISION_BITS}" if low else f"at most {MAX_PRECISION_BITS}"
            raise ValueError(f"--precision must be {bound} bits, got {args.precision}")
        if not args.batch:
            if not args.input:
                raise ValueError("an input file (or --batch) is required")
            return build_one(args, _load_dataset(args.input))
        if not os.path.isdir(args.batch):
            raise FileNotFoundError(f"batch directory not found: {args.batch}")
        results = []
        for name in sorted(n for n in os.listdir(args.batch) if n.endswith(".json")):
            path = os.path.join(args.batch, name)
            if not os.path.isfile(path):
                continue
            try:
                results.append({"file": name, "report": build_one(args, _load_dataset(path))})
            except ValueError as exc:
                results.append({"file": name, "error": str(exc)})
        return {"results": results}

    return build


def _render_batch(render_one):
    def render(payload: dict) -> None:
        for entry in payload["results"]:
            print(f"== {entry['file']}")
            if "error" in entry:
                print(f"  error: {entry['error']}")
            else:
                render_one(entry["report"])

    return render


# -- other commands -----------------------------------------------------------------


def _enumerate_payload(args) -> dict:
    if args.p != 3:
        raise ValueError("enumeration is implemented for order 3 only")
    pairs = rigidity.enumerate_pseudofree_p3(
        args.quotient_b_plus, args.trivial, ManifoldInvariants.k3()
    )
    return {"pairs": [list(pair) for pair in pairs]}


def _render_enumerate(p: dict) -> None:
    print("(f1, f2) pairs: " + (", ".join(map(str, map(tuple, p["pairs"]))) or "none"))


def _prop41_payload(args) -> dict:
    if args.input and (args.m or args.n):
        raise ValueError("give a dataset file or --m/--n vectors, not both")
    if args.m and args.n:
        m = tuple(int(x) for x in args.m.split(","))
        n = tuple(int(x) for x in args.n.split(","))
        params = InstanceParameters(p=args.p, m_vector=m, n_vector=n, l=args.l, d=args.d)
    elif args.input:
        dataset = _load_dataset(args.input)
        kv = k_vector(spin_number_tuple(dataset))
        l = (dataset.manifold.b_plus - 1) // 2
        params = rigidity.derive_instance(kv, l=l, d=args.d)
    else:
        raise ValueError("give --m/--n vectors or a dataset file")
    return rigidity.vanishing_dict(rigidity.verify_sw_vanishing(params, args.q))


# -- selftest -------------------------------------------------------------------


def _selftest_items() -> list[tuple[str, bool, str]]:
    items: list[tuple[str, bool, str]] = []

    def check(name: str, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed item is a failed item
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        items.append((name, ok, detail))

    fermat = fermat_quartic()

    def fermat_spin():
        spin = rigidity.classify_spin(spin_number_tuple(fermat))
        return spin.value == 2, f"spin number {spin.value}"

    def fermat_quotient():
        q = orbit_space_p3(class_counts(fermat))
        s, e = q["sigma"], q["euler"]
        return (s, e) == (Fraction(-4), Fraction(12)), f"sigma {s}, euler {e}"

    def fermat_defects():
        kv = k_vector(spin_number_tuple(fermat))
        return kv.k == (2, 0, 0), f"defects {kv.k}"

    def fermat_verdict():
        v = rigidity.verdict(fermat)
        return v.outcome == rigidity.NO_OBSTRUCTION, v.outcome

    def spin_index_k3():
        v = spin_index(ManifoldInvariants.k3())
        return v == 2, f"index {v}"

    def enum_sets():
        k3 = ManifoldInvariants.k3()
        got = (
            rigidity.enumerate_pseudofree_p3(1, False, k3),
            rigidity.enumerate_pseudofree_p3(3, False, k3),
            rigidity.enumerate_pseudofree_p3(3, True, k3),
        )
        want = ([(0, 3)], [(0, 12), (3, 6), (6, 0)], [])
        return got == want, f"{got}"

    def adams_instance():
        params = InstanceParameters(p=3, m_vector=(2, 2, 2), n_vector=(2, 1, 1), l=1, d=0)
        rep = rigidity.verify_sw_vanishing(params)
        ok = (
            rep.kernel_rank == 1
            and rep.kernel_spanned_by_expected
            and rep.scalar_forced_zero
            and rep.sw_value == 0
        )
        return ok, rep.detail

    check("fermat-spin-number", fermat_spin)
    check("fermat-quotient", fermat_quotient)
    check("fermat-defect-vector", fermat_defects)
    check("fermat-verdict", fermat_verdict)
    check("spin-index-k3", spin_index_k3)
    check("pseudofree-enumeration", enum_sets)
    check("adams-kernel-instance", adams_instance)
    return items


def _selftest_payload(args) -> dict:
    items = _selftest_items()
    return {
        "items": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in items
        ],
        "passed": all(ok for _, ok, _ in items),
    }


def _render_selftest(payload: dict) -> None:
    for item in payload["items"]:
        status = "PASS" if item["passed"] else "FAIL"
        print(f"{status} {item['name']} ({item['detail']})")
    print("all passed" if payload["passed"] else "FAILURES present")


# -- argument parsing -----------------------------------------------------------


@functools.cache  # once per process; parsing leaves the parsers unchanged
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="equispin",
        description=(
            "Exact equivariant index invariants for odd-prime cyclic actions "
            "on spin 4-manifolds"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dataset_command(name, help_text, power=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("input", nargs="?", help="dataset JSON file")
        sp.add_argument("--batch", metavar="DIR", help="evaluate every *.json dataset in DIR")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--precision", type=int, default=80, metavar="BITS",
                        help=f"bits for advisory numeric estimates (at least {MIN_PRECISION_BITS})")
        if power:
            sp.add_argument("--power", type=int, default=1, metavar="J",
                            help="twist index (0 gives the untwisted index)")
        return sp

    add_dataset_command("spin", "spin number of a dataset at a chosen power", power=True)
    add_dataset_command("quotient", "orbit-space signature and Euler characteristic")
    add_dataset_command("kvector", "eigenspace-defect vector from the spin numbers")
    add_dataset_command("verdict", "full constraint pipeline with reason chain")

    en = sub.add_parser("enumerate", help="pseudofree point-type counts for order 3")
    en.add_argument("--p", type=int, default=3)
    en.add_argument("--quotient-b-plus", type=int, required=True, choices=(1, 3))
    en.add_argument("--trivial", action="store_true", help="restrict to homologically trivial actions")
    en.add_argument("--format", choices=("text", "json"), default="text")

    pr = sub.add_parser("prop41", help="Adams-kernel vanishing verification")
    pr.add_argument("input", nargs="?", help="dataset JSON file (parameters derived from its defects)")
    pr.add_argument("--m", help="comma-separated dimension vector, e.g. 2,2,2")
    pr.add_argument("--n", help="comma-separated dimension vector, e.g. 2,1,1")
    pr.add_argument("--l", type=int, default=1)
    pr.add_argument("--d", type=int, default=0)
    pr.add_argument("--q", type=int, default=2, help="Adams exponent for the kernel")
    pr.add_argument("--p", type=int, default=3)
    pr.add_argument("--format", choices=("text", "json"), default="text")

    st = sub.add_parser("selftest", help="reproduce the headline regression values")
    st.add_argument("--format", choices=("text", "json"), default="text")

    return parser, sub.choices


# command -> (payload builder, text renderer)
COMMANDS = {
    "spin": (_per_dataset(_spin_payload), _render_spin),
    "quotient": (_per_dataset(_quotient_payload), lambda q: print(_quotient_text(q))),
    "kvector": (_per_dataset(_kvector_payload), _render_kvector),
    "verdict": (_per_dataset(_verdict_payload), _render_verdict_text),
    "enumerate": (_enumerate_payload, _render_enumerate),
    "prop41": (_prop41_payload, lambda p: print(p["detail"])),
    "selftest": (_selftest_payload, _render_selftest),
}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``parse_args`` of the top-level parser, with a named command parsed by its own parser."""
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no command, -h, an unknown word: the top level reports it
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    build, render = COMMANDS[args.command]
    if getattr(args, "batch", None):
        render = _render_batch(render)
    try:
        payload = build(args)
        _emit(payload, args.format, render)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # DatasetError and NonIntegralDefectError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if args.command == "selftest" and not payload["passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
