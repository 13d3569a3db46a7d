"""Command-line front end.

One binary, subcommand per task.  Exit codes: 0 on success, 1 for invalid
input (bad flags, malformed files, impossible plans), 2 when a numerical
routine fails to converge or diverges.  Text tables of numbers are read
whole through `errors.finite_rows` before anything is printed, so a bad
row leaves stdout empty and its error names the file line.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments, kb as kbmod, mkprobit, network, simulator
from .errors import (
    FormatError,
    InvalidArgumentError,
    NumericalFailureError,
    TsaKitError,
    finite_rows,
    read_text,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; keep 2 reserved for numerics.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidArgumentError(message)


def _comma_list(kind):
    """Flag type: a non-empty comma-separated list of `kind` values, as a tuple."""

    def parse(text: str):
        values = tuple(kind(tok) for tok in text.split(",") if tok.strip())
        if not values:
            raise ValueError(text)
        return values

    parse.__name__ = f"comma-separated {kind.__name__} list"  # argparse's error names it
    return parse


def default_fault_buses(case: network.NetworkCase):
    """Every bus except the reference machine's terminal."""
    ref = case.generators[0].bus
    return tuple(b.bus_id for b in case.buses if b.bus_id != ref)


def _load_case(path):
    return network.load_bundled_case() if path is None else network.load_case(path)


def _cmd_simulate(args) -> int:
    case = _load_case(args.case)
    fault_bus = None if args.fault_bus is None else int(args.fault_bus)
    scenario = simulator.Scenario(
        load_scale=args.load_scale,
        dispatch_seed=args.dispatch_seed,
        fault_bus=fault_bus,
        fault_clearing_cycles=args.clearing_cycles,
        observation_horizon_s=args.horizon,
    )
    pm = kbmod.dispatch_pm(case, args.load_scale, args.dispatch_seed)
    reduced = network.reduce_to_generators(case, args.load_scale)
    eq = network.solve_equilibrium(case, reduced, pm)
    traj = simulator.simulate(case, scenario, eq)
    lab = simulator.label(traj)
    with open(args.out, "w", encoding="utf-8") as fh:
        simulator.trajectory_to_csv(traj, fh)
    print(f"samples={traj.n_samples} label={lab.value:+d} max_spread_deg={lab.max_spread_deg:.2f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_gen_kb(args) -> int:
    case = _load_case(args.case)
    fault_buses = args.fault_buses or default_fault_buses(case)
    plan = kbmod.ScenarioPlan(
        fault_buses=fault_buses,
        load_levels=args.levels or (),
        dispatches_per_level=args.dispatches,
        fault_clearing_cycles=args.clearing_cycles,
        observation_horizon_s=args.horizon,
        master_seed=args.seed,
    )
    base = kbmod.generate_kb(case, plan, noise_max_rel_error=args.noise)
    kbmod.save_kb(base, args.out)
    labels = base.labels
    print(
        f"planned={plan.n_planned} kept={base.n_samples} "
        f"stable={int(np.sum(labels == 1))} unstable={int(np.sum(labels == -1))} "
        f"discarded={len(base.discarded)}"
    )
    print(f"wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    base = kbmod.load_kb(args.kb)
    scheme = experiments.parse_scheme(args.scheme)
    data_split = kbmod.split(base, args.train_size, seed=experiments.split_stream(args.seed))
    model = experiments.train_model(base, data_split.train_indices, scheme)
    mkprobit.save_model(model, args.out)
    train_m = experiments.evaluate_model(model, base, data_split.train_indices)
    test_m = experiments.evaluate_model(model, base, data_split.test_indices)
    beta = ",".join(f"{b:.4f}" for b in model.beta)
    print(
        f"scheme={scheme.combination} iterations={len(model.lb_trace)} "
        f"converged={model.converged} beta=[{beta}]"
    )
    print(f"train_accuracy={train_m['accuracy']:.4f} test_accuracy={test_m['accuracy']:.4f}")
    print(f"wrote {args.out}")
    return 0


def _cmd_eval(args) -> int:
    base = kbmod.load_kb(args.kb)
    model = mkprobit.load_model(args.model)
    m = experiments.evaluate_model(model, base)
    for key in (
        "accuracy",
        "stable_as_stable",
        "stable_as_unstable",
        "unstable_as_stable",
        "unstable_as_unstable",
    ):
        print(f"{key}={m[key]}")
    return 0


def _cmd_predict(args) -> int:
    model = mkprobit.load_model(args.model)
    lines = read_text(args.features).split("\n")
    rows = [(n, line.split()) for n, line in enumerate(lines, start=1) if line.strip()]
    raw = np.array(list(finite_rows(rows, model.n_features))).reshape(-1, model.n_features)
    probs = mkprobit.model_probabilities(model, raw)[0]
    # argmax takes the first of tied classes, as `predictive_distribution` does.
    for c, row in zip(np.argmax(probs, axis=1), probs):
        print(f"{model.class_labels[c]:+d} " + " ".join(f"{p:.6f}" for p in row))
    return 0


def _cmd_sweep(args) -> int:
    base = kbmod.load_kb(args.kb)
    noisy = kbmod.load_kb(args.noisy_kb) if args.noisy_kb else None
    if args.schemes in experiments.SCHEME_TABLES:
        schemes = experiments.SCHEME_TABLES[args.schemes]()
    else:
        schemes = tuple(
            experiments.parse_scheme(tok, scheme_id=tok.strip())
            for tok in args.schemes.split(";")
            if tok.strip()
        )
    seeds = [args.seed_base + i for i in range(args.seeds)]
    report = experiments.sweep(
        base,
        schemes,
        seeds,
        n_train=args.train_size,
        noisy_kb=noisy,
        kb_hash=kbmod.file_sha256(args.kb),
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(experiments.report_to_csv(report))
    for sid, med in report.medians.items():
        print(f"scheme {sid}: median_accuracy={med:.4f}")
    print(f"wrote {args.out}")
    return 0


def _read_trajectory_csv(path):
    lines = read_text(path).splitlines()
    if not lines or lines[0].strip() != simulator.TRAJECTORY_HEADER:
        raise FormatError(f"{path} is not a trajectory table")
    rows = [(n, line.split(",")) for n, line in enumerate(lines[1:], start=2) if line.strip()]
    if not rows:
        raise FormatError(f"{path} holds no trajectory rows")
    return np.array(list(finite_rows(rows, 6)))


def _cmd_plot(args) -> int:
    if args.kind == "bound":
        if not args.model:
            raise InvalidArgumentError("plot bound needs --model")
        model = mkprobit.load_model(args.model)
        trace = model.lb_trace
        with open(args.out, "w", encoding="utf-8") as fh:
            if args.out.endswith(".csv"):
                experiments.lb_trace_csv(trace, fh)
            else:
                xs = np.arange(1, len(trace) + 1)
                experiments.svg_line_chart(
                    [("lower bound", xs, np.array(trace))],
                    fh,
                    title="training lower bound",
                    x_label="iteration",
                    y_label="bound",
                )
    else:
        if not args.traj:
            raise InvalidArgumentError("plot swing needs --traj")
        data = _read_trajectory_csv(args.traj)
        series = []
        for g in sorted(set(int(v) for v in data[:, 1])):
            rows = data[data[:, 1] == g]
            series.append((f"gen {g}", rows[:, 0], rows[:, 2]))
        with open(args.out, "w", encoding="utf-8") as fh:
            experiments.svg_line_chart(
                series, fh, title="rotor angles", x_label="t (s)", y_label="delta (rad)"
            )
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tsakit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate one scenario and dump the trajectory")
    p.add_argument("--case", help="case file (default: bundled three-machine case)")
    p.add_argument("--load-scale", type=float, default=1.0)
    p.add_argument("--fault-bus", type=int, default=None)
    p.add_argument("--clearing-cycles", type=int, default=5)
    p.add_argument("--horizon", type=float, default=5.0)
    p.add_argument("--dispatch-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("gen-kb", help="simulate a plan grid into a knowledge base")
    p.add_argument("--case")
    p.add_argument("--levels", type=_comma_list(float), help="comma list of load levels")
    p.add_argument("--dispatches", type=int, default=5)
    p.add_argument(
        "--fault-buses",
        type=_comma_list(int),
        help="comma list of bus ids (default: all but the reference terminal)",
    )
    p.add_argument("--clearing-cycles", type=int, default=5)
    p.add_argument("--horizon", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.0, help="relative measurement error bound")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_kb)

    p = sub.add_parser("train", help="fit one scheme on a knowledge base")
    p.add_argument("--kb", required=True)
    p.add_argument("--scheme", default="F1(Kg)+F2(Kg)+F3(Kg)")
    p.add_argument("--train-size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed of the train/test split")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a model over a knowledge base")
    p.add_argument("--model", required=True)
    p.add_argument("--kb", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="classify rows of 23 feature values")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True, help="text file, one 23-value row per line")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("sweep", help="run a scheme table over several seeds")
    p.add_argument("--kb", required=True)
    p.add_argument("--noisy-kb", help="aligned noisy companion (needed for table6)")
    p.add_argument(
        "--schemes",
        default="table4",
        help="table4|table5|table6 or ';'-separated scheme strings",
    )
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--seed-base", type=int, default=0)
    p.add_argument("--train-size", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plot", help="emit plot data (csv) or a line chart (svg)")
    p.add_argument("kind", choices=("bound", "swing"))
    p.add_argument("--model")
    p.add_argument("--traj")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (InvalidArgumentError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except TsaKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
