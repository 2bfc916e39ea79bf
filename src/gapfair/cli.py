"""Command-line entry point.

Subcommands: solve-divisible, solve-fefx, solve-approx-fefx, verify,
reduce-knapsack, fixtures, gen-random.  Solver outputs are always
re-verified before being written; a verification failure exits nonzero
(it signals an internal bug, never a silently emitted allocation).

Exit codes: 0 success, 1 verification reported FAIL, 2 malformed input or
a file that cannot be read or written, 3 precondition violation, 4
internal error (a solver output failed verification, or a solver raised
InternalError or built a malformed program, LPStructureError).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import serialize
from .instance import (
    CHARITY,
    FractionalAllocation,
    Instance,
    IntegralAllocation,
    InternalError,
    LPStructureError,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def gen_random(
    seed: int,
    n: int,
    m: int,
    max_value: int = 10,
    max_size: int = 5,
    max_budget: int = 20,
) -> Instance:
    """Deterministic seeded instance; sizes start at 1 so the divisible
    pipeline's precondition always holds."""
    if min(n, m, max_value, max_size, max_budget) < 1:
        raise ValueError("all generator bounds must be >= 1")
    rng = random.Random(seed)
    return Instance(
        n=n,
        m=m,
        values=tuple(
            tuple(rng.randint(0, max_value) for _ in range(m)) for _ in range(n)
        ),
        sizes=tuple(
            tuple(rng.randint(1, max_size) for _ in range(m)) for _ in range(n)
        ),
        budgets=tuple(rng.randint(1, max_budget) for _ in range(n)),
    )


def _eps(text: str) -> Fraction:
    try:
        if "e" in text.lower():  # Fraction would compute 10**exponent
            raise ValueError(text)
        eps = Fraction(text)
        str(eps)  # printed in the FEFx label; ValueError past the int->str limit
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from exc
    if not 0 < eps < 1:
        raise argparse.ArgumentTypeError("eps must lie in (0,1)")
    return eps


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapfair",
        description="Envy-free allocation under generalized assignment constraints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve-divisible", help="FEF fractional allocation")
    p.add_argument("instance", type=Path)
    p.add_argument("-o", "--output", type=Path)
    p.add_argument("--trace", action="store_true", help="dump tau per iteration")
    p.add_argument("--dump-lp", action="store_true", help="print the initial LP")

    p = sub.add_parser("solve-fefx", help="FEFx integral allocation")
    p.add_argument("instance", type=Path)
    p.add_argument("-o", "--output", type=Path)
    p.add_argument("--trace", action="store_true", help="print each swap")
    p.set_defaults(eps=None)

    p = sub.add_parser("solve-approx-fefx", help="(1-eps)-FEFx allocation")
    p.add_argument("instance", type=Path)
    p.add_argument("--eps", type=_eps, required=True, metavar="P/Q")
    p.add_argument("-o", "--output", type=Path)
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("verify", help="check an allocation file")
    p.add_argument("allocation", type=Path)
    p.add_argument("--mode", choices=("fef", "fefx", "apx-fefx"), required=True)
    p.add_argument("--eps", type=_eps, metavar="P/Q")

    p = sub.add_parser("reduce-knapsack", help="knapsack optimum via the FEFx oracle")
    p.add_argument("knapsack", type=Path)
    p.add_argument("--trace", action="store_true", help="print the probe trace")

    p = sub.add_parser("fixtures", help="emit the Nash-welfare counterexample files")
    p.add_argument("--out-dir", type=Path, default=Path("."))

    p = sub.add_parser("gen-random", help="generate a seeded random instance")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--max-value", type=int, default=10)
    p.add_argument("--max-size", type=int, default=5)
    p.add_argument("--max-budget", type=int, default=20)
    p.add_argument("-o", "--output", type=Path)

    return parser


# Each subcommand imports the solver modules it runs, so a process loads
# only the pipelines it uses.  Solvers are called as module attributes,
# looked up at call time.


def _target_label(target) -> str:
    return CHARITY if target == CHARITY else f"agent {target + 1}"


def _violation(instance: Instance, allocation, eps=None) -> str | None:
    """The verifier's witness, 1-based, as `verify` prints it after "FAIL: ";
    None if FEF (fractional) or FEFx at factor 1 - eps (integral) holds."""
    if isinstance(allocation, FractionalAllocation):
        from . import divisible

        w = divisible.fef_witness(instance, allocation)
        return w and (
            f"agent {w.agent + 1} envies {_target_label(w.target)} "
            f"(own value {w.own_value}, attainable {w.best_value})"
        )
    from . import indivisible

    w = indivisible.fefx_witness(instance, allocation, eps or 0)
    return w and (
        f"agent {w.agent + 1} envies subset {sorted(g + 1 for g in w.subset)} of "
        f"{_target_label(w.target)} (own value {w.own_value}, subset value {w.subset_value})"
    )


def _cmd_solve_divisible(args) -> int:
    from . import divisible

    instance = serialize.load_instance(args.instance)
    if args.dump_lp:
        from .instance import augment
        from .lp import EQ

        lp, cols = divisible.build_lp(augment(instance), [1] * instance.n, EQ)
        names = [f"x[{a + 1},{g + 1}]" for a, g in cols]
        print(lp.pretty(names), file=sys.stderr)
    trace = (
        (lambda it, tau: print(f"iteration {it}: tau={tau}", file=sys.stderr))
        if args.trace
        else None
    )
    result = divisible.divisible_fef(instance, trace=trace)
    violation = _violation(instance, result.allocation)
    if violation:  # main prints it after "internal error: " and exits 4
        raise InternalError(f"solver output failed verification: {violation}")
    if args.output:
        serialize.dump_fractional(result.allocation, args.instance, args.output)
    print(f"tau* = {result.tau}, iterations = {result.iterations}")
    for a in range(instance.n):
        row = " ".join(serialize.frac_to_str(v) for v in result.allocation.x[a])
        print(f"agent {a + 1}: {row}")
    print("charity:", " ".join(serialize.frac_to_str(v) for v in result.allocation.charity))
    print("verification: PASS (feasibly envy-free)")
    return EXIT_OK


def _print_integral(instance: Instance, allocation: IntegralAllocation) -> None:
    for a in range(instance.n):
        goods = sorted(g + 1 for g in allocation.bundles[a])
        value = instance.bundle_value(a, allocation.bundles[a])
        print(f"agent {a + 1}: goods {goods} (value {value})")
    print("charity:", sorted(g + 1 for g in allocation.charity))


def _print_swap(rec) -> None:
    print(
        f"iteration {rec.iteration}: agent {rec.agent + 1} takes "
        f"{sorted(g + 1 for g in rec.goods)}, welfare {rec.welfare}",
        file=sys.stderr,
    )


def _cmd_solve_fefx(args) -> int:
    """solve-fefx, and solve-approx-fefx when --eps is given."""
    from . import indivisible

    instance = serialize.load_instance(args.instance)
    trace = _print_swap if args.trace else None
    if args.eps is None:
        result = indivisible.compute_fefx(instance, trace=trace)
        label = "FEFx"
    else:
        result = indivisible.compute_approx_fefx(instance, args.eps, trace=trace)
        label = f"(1-{args.eps})-FEFx"
    violation = _violation(instance, result.allocation, args.eps)
    if violation:  # main prints it after "internal error: " and exits 4
        raise InternalError(f"solver output failed verification: {violation}")
    if args.output:
        serialize.dump_integral(result.allocation, args.instance, args.output)
    _print_integral(instance, result.allocation)
    print(f"verification: PASS ({label})")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if (args.eps is None) == (args.mode == "apx-fefx"):
        print("--eps is for --mode apx-fefx, which requires it", file=sys.stderr)
        return EXIT_BAD_INPUT
    allocation, instance, _ = serialize.load_allocation(args.allocation)
    fef = args.mode == "fef"
    if isinstance(allocation, FractionalAllocation) != fef:
        kind = "a fractional" if fef else "an integral"
        print(f"mode {args.mode} needs {kind} allocation", file=sys.stderr)
        return EXIT_BAD_INPUT
    violation = _violation(instance, allocation, args.eps)
    if violation:
        print(f"FAIL: {violation}")
        return EXIT_FAIL
    print("PASS: feasibly envy-free" if fef else "PASS")
    return EXIT_OK


def _cmd_reduce_knapsack(args) -> int:
    from . import reductions

    kp = serialize.load_knapsack(args.knapsack)
    probe_trace = (
        (lambda mu, parity: print(f"mu={mu}: {parity}", file=sys.stderr))
        if args.trace
        else None
    )
    optimum = reductions.solve_knapsack_via_fefx(kp, probe_trace=probe_trace)
    print(f"optimum value: {optimum}")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    from . import reductions

    fixture = reductions.mnw_fixture()
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    instance_path = out / "mnw_instance.json"
    serialize.dump_instance(fixture.instance, instance_path)
    serialize.dump_fractional(
        fixture.nsw_allocation, instance_path, out / "mnw_allocation.json"
    )
    print(f"wrote {instance_path} and {out / 'mnw_allocation.json'}")
    print(f"(values stored x{fixture.value_scale}; sizes and budgets unscaled)")
    return EXIT_OK


def _cmd_gen_random(args) -> int:
    instance = gen_random(
        args.seed, args.n, args.m, args.max_value, args.max_size, args.max_budget
    )
    if args.output:
        serialize.dump_instance(instance, args.output)
        print(f"wrote {args.output}")
    else:
        print(serialize.instance_json(instance), end="")
    return EXIT_OK


_COMMANDS = {
    "solve-divisible": _cmd_solve_divisible,
    "solve-fefx": _cmd_solve_fefx,
    "solve-approx-fefx": _cmd_solve_fefx,
    "verify": _cmd_verify,
    "reduce-knapsack": _cmd_reduce_knapsack,
    "fixtures": _cmd_fixtures,
    "gen-random": _cmd_gen_random,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, serialize.InstanceFormatError) as exc:
        # An unreadable input or unwritable output file, or a malformed one.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (InternalError, LPStructureError) as exc:
        # A malformed program here was built by the solver, not the user.
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:  # ZeroSizeError and InfeasibleAllocationError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
