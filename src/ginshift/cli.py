"""Command-line frontend.

Every subcommand records the master seed in its output and derives all
randomness from it, so re-running with the same arguments reproduces
byte-identical JSON.

Exit codes: 0 pass, 1 check failed, 2 invalid input, 3 certification failed,
4 size limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .complexes import read_complex, shifted_complex, write_complex
from .fields import InvalidInputError, PrimeField, SizeLimitError, parse_field
from .gin import (CertificationError, DualityViolationError,
                  combinatorial_shift, gin, gin_adaptive, trans_search)
from .graphs import base_form, condition_v, condition_vi, is_chordal, read_graph
from .ideals import read_ideal
from .invariants import (SQUAREFREE, STABLE_POLY, betti_stable,
                         closed_form_profiles, index_profile,
                         resolution_oracle, two_cliques_profile_from_h)
from .orders import parse_order
from .verifier import SWEEPS, property_suite

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_CERTIFICATION = 3
EXIT_SIZE_LIMIT = 4


def _common(parser: argparse.ArgumentParser, *options: str) -> None:
    """Add the engine options named in ``options`` ("order", "field",
    "degree-cap", "trials"), and --seed and --format, which every
    subcommand reads."""
    if "order" in options:
        parser.add_argument("--order", default="revlex")
    if "field" in options:
        parser.add_argument("--field", default="prime")
    if "degree-cap" in options:
        parser.add_argument("--degree-cap", type=int, default=None)
    if "trials" in options:
        parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=["json", "table"], default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ginshift")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gin", help="certified generic initial ideal")
    p.add_argument("ideal_file")
    _common(p, "order", "field", "degree-cap", "trials")

    p = sub.add_parser("shift", help="apply an elementary shift sequence")
    p.add_argument("ideal_file")
    p.add_argument("--pairs", required=True,
                   help="semicolon-separated pairs, e.g. '1,3;2,4'")
    _common(p, "order", "field", "degree-cap")

    p = sub.add_parser("witnesses", help="transformed strongly stable ideals")
    p.add_argument("ideal_file")
    p.add_argument("--budget", type=int, default=200)
    _common(p, "order", "field", "degree-cap")

    p = sub.add_parser("classify", help="graph classifiers")
    p.add_argument("graph_file")
    _common(p)

    p = sub.add_parser("profile", help="index profiles and closed forms")
    p.add_argument("ideal_file", nargs="?")
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--closed-form", metavar="A,B",
                   help="closed-form shifted-graph profiles for K_{a,b} "
                        "and K_a u K_b")
    _common(p)

    p = sub.add_parser("betti", help="Betti tables and the resolution oracle")
    p.add_argument("ideal_file")
    p.add_argument("--flavor", choices=["stable", "squarefree"],
                   default="stable")
    p.add_argument("--oracle", action="store_true")
    _common(p)

    p = sub.add_parser("shifted-complex", help="algebraically shifted complex")
    p.add_argument("complex_file")
    _common(p, "order", "field", "trials")

    p = sub.add_parser("sweep", help="exhaustive theorem sweeps")
    p.add_argument("theorem", choices=list(SWEEPS))
    p.add_argument("--n", type=int, default=None)
    _common(p, "field", "trials")

    p = sub.add_parser("properties",
                       help="randomized lemma checks (includes the "
                            "characteristic-2 negative test)")
    p.add_argument("--samples", type=int, default=200)
    _common(p)

    return parser


def _emit(doc: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True))
        return
    for key, value in sorted(doc.items()):
        print(f"{key}: {value}")


def _load_field(spec: str):
    field = parse_field(spec)
    if isinstance(field, PrimeField) and field.p == 2:
        raise InvalidInputError(
            "the prime-2 field is reserved for the negative test under "
            "the 'properties' subcommand")
    return field


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    pairs = []
    for chunk in text.split(";"):
        a, b = chunk.split(",")
        pairs.append((int(a), int(b)))
    return pairs


def run(args) -> int:
    field = _load_field(args.field) if "field" in args else None

    if args.command == "gin":
        ideal = read_ideal(Path(args.ideal_file).read_text())
        order = parse_order(args.order, ideal.n)
        if args.degree_cap is None:
            g, cert, cap = gin_adaptive(order, ideal, trials=args.trials,
                                        seed=args.seed, field=field)
        else:
            g, cert = gin(order, ideal, cap=args.degree_cap,
                          trials=args.trials, seed=args.seed, field=field)
            cap = args.degree_cap
        _emit({"generators": [str(u) for u in g.generators],
               "certificate": cert.to_dict(), "degree_cap": cap,
               "seed": args.seed}, args)
        return EXIT_PASS

    if args.command == "shift":
        ideal = read_ideal(Path(args.ideal_file).read_text())
        order = parse_order(args.order, ideal.n)
        result = combinatorial_shift(order, ideal, _parse_pairs(args.pairs),
                                     cap=args.degree_cap, field=field)
        _emit({"generators": [str(u) for u in result.generators],
               "pairs": args.pairs, "seed": args.seed}, args)
        return EXIT_PASS

    if args.command == "witnesses":
        ideal = read_ideal(Path(args.ideal_file).read_text())
        order = parse_order(args.order, ideal.n)
        found, complete = trans_search(ideal, budget=args.budget,
                                       cap=args.degree_cap, order=order,
                                       field=field)
        witnesses = sorted(
            ({"generators": [str(u) for u in w.generators],
              "sequence": list(map(list, seq))} for w, seq in found.items()),
            key=lambda d: d["generators"])
        _emit({"witnesses": witnesses, "budget": args.budget,
               "complete": complete, "seed": args.seed}, args)
        return EXIT_PASS

    if args.command == "classify":
        g = read_graph(Path(args.graph_file).read_text())
        v_ok, v_witness = condition_v(g)
        vi_ok, peel, base = condition_vi(g)
        _emit({"condition_v": v_ok, "condition_v_witness": v_witness,
               "condition_vi": vi_ok,
               "peel_sequence": list(peel) if peel else None,
               "residual_base": base, "base_form": base_form(g),
               "chordal": is_chordal(g), "seed": args.seed}, args)
        return EXIT_PASS

    if args.command == "profile":
        doc: dict = {"seed": args.seed}
        if args.closed_form:
            a, b = (int(x) for x in args.closed_form.split(","))
            bip, two = closed_form_profiles(a, b)
            doc["bipartite_profile"] = bip
            doc["two_cliques_profile"] = two
            doc["two_cliques_profile_h_sum"] = two_cliques_profile_from_h(a, b)
        if args.ideal_file:
            ideal = read_ideal(Path(args.ideal_file).read_text())
            min_le, max_le = index_profile(ideal, args.degree)
            doc["degree"] = args.degree
            doc["min_le"] = min_le
            doc["max_le"] = max_le
        if len(doc) == 1:
            raise InvalidInputError("profile needs an ideal file or "
                                    "--closed-form a,b")
        _emit(doc, args)
        return EXIT_PASS

    if args.command == "betti":
        ideal = read_ideal(Path(args.ideal_file).read_text())
        flavor = SQUAREFREE if args.flavor == "squarefree" else STABLE_POLY
        doc = {"seed": args.seed}
        try:
            doc["betti"] = betti_stable(ideal, flavor).to_json()
        except InvalidInputError:
            # the closed form needs a (squarefree) strongly stable ideal;
            # the oracle takes any polynomial monomial ideal
            if not args.oracle:
                raise
        if args.oracle:
            doc["oracle"] = resolution_oracle(ideal).to_json()
            if "betti" in doc:
                doc["oracle_matches"] = doc["oracle"] == doc["betti"]
        _emit(doc, args)
        if doc.get("oracle_matches") is False:
            return EXIT_CHECK_FAILED
        return EXIT_PASS

    if args.command == "shifted-complex":
        gamma = read_complex(Path(args.complex_file).read_text())
        order = parse_order(args.order, gamma.n)
        delta = shifted_complex(order, gamma, seed=args.seed,
                                trials=args.trials, field=field)
        _emit({"shifted": json.loads(write_complex(delta)),
               "f_vector": delta.f_vector(), "seed": args.seed}, args)
        return EXIT_PASS

    if args.command == "sweep":
        size = {} if args.n is None else {"n_max": args.n}
        report = SWEEPS[args.theorem](seed=args.seed, trials=args.trials,
                                      field=field, **size)
        if args.format == "json":
            print(report.to_json())
        else:
            _emit(dict(report.summary, seed=args.seed), args)
        return EXIT_PASS if report.passed else EXIT_CHECK_FAILED

    if args.command == "properties":
        report = property_suite(seed=args.seed, samples=args.samples)
        _emit(dict(report, seed=args.seed), args)
        return EXIT_PASS if report["passed"] else EXIT_CHECK_FAILED

    raise InvalidInputError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run(args)
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    except (CertificationError, DualityViolationError) as exc:
        print(f"certification error: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (InvalidInputError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
