"""Command-line front end.

Verbs: classify, solve, simulate, bifurcation, reproduce, list-games.
Games come from --preset NAME (with repeatable --param k=v) or from a JSON
file via --game.  The output directory is --out, overridden by the
GAMEDYN_OUT environment variable when set.  Exit codes: 0 success, 1 failed
reproduce checks, 2 usage errors (a malformed game file, an output path
that is not a directory and an output file that cannot be written among
them), 3 numerical failures (for example a bifurcation bracket where no
rest point is found).  simulate runs every scheme through one per-seed
pipeline, driven by the table _SCHEMES, to the one CSV writer; a run whose
state overflows is "diverged", with exit 0.
main parses with one parser per process, built on its first call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .analysis import (bifurcation_epsilon, classify, composite_lyapunov_trace,
                       convergence_report, lyapunov_trace, rest_point,
                       score_bound_excess, storage_matrix)
from .dynamics import (FeedbackBlock, IntegrationDivergedError, LearningParams,
                       SimulationRun, run_discrete, run_stochastic,
                       seeded_initial_scores, simulate_batch, write_trajectory_csv)
from .errors import ConfigurationError, DomainError, NumericsError, UsageError
from .games import GameSpec, load_game
from .presets import available_presets, preset
from .reproduce import EXAMPLE_IDS, format_report, run_example


def _add_game_options(sub):
    sub.add_argument("--preset", help="preset game name (see list-games)")
    sub.add_argument("--param", action="append", default=[], metavar="K=V",
                     help="preset parameter, repeatable")
    sub.add_argument("--game", help="path to a JSON game file")


def _add_out_option(sub):
    sub.add_argument("--out", help="output directory (env GAMEDYN_OUT overrides)")


def _build_game(args) -> GameSpec:
    if bool(args.preset) == bool(args.game):
        raise UsageError("specify exactly one of --preset or --game")
    if args.game:
        if args.param:
            raise UsageError("--param only applies to --preset games")
        return load_game(args.game)
    params = {}
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise UsageError(f"malformed --param {item!r}, expected k=v")
        try:
            params[key] = float(value)
        except ValueError:
            raise UsageError(f"parameter {key!r} has non-numeric value {value!r}")
    return preset(args.preset, params)


def _out_dir(args) -> str | None:
    env = os.environ.get("GAMEDYN_OUT")
    path = env if env else args.out
    if path:
        try:
            os.makedirs(path, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot use output directory {path}: {exc.strerror}") from exc
    return path or None


def _parse_seeds(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"malformed --seeds {text!r}, expected comma-separated integers")
    if min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise UsageError(f"--seeds {text!r} must list distinct non-negative integers")
    return seeds


def _strict(value):
    """value with each non-finite float, which JSON cannot hold, as None."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _emit_json(doc: dict, out_dir: str | None, filename: str) -> str:
    """The one JSON writer: doc as strict JSON text, non-finite floats as
    null, written to filename in out_dir when there is one; returns the text."""
    text = json.dumps(_strict(doc), indent=2, sort_keys=True, allow_nan=False)
    if out_dir is not None:
        with open(os.path.join(out_dir, filename), "w") as fh:
            fh.write(text + "\n")
    return text


def _game_doc(game: GameSpec) -> dict:
    return {"name": game.name or "unnamed",
            "players": game.player_count,
            "action_counts": list(game.action_counts)}


def _cmd_list_games(args) -> int:
    for name in available_presets():
        print(name)
    return 0


def _cmd_classify(args) -> int:
    game = _build_game(args)
    report = classify(game)
    doc = {"game": _game_doc(game), "classification": report.to_dict()}
    print(_emit_json(doc, _out_dir(args), "classify.json"))
    return 0


def _cmd_solve(args) -> int:
    game = _build_game(args)
    result = rest_point(game, args.eps)
    doc = {"game": _game_doc(game), "rest_point": result.to_dict()}
    print(_emit_json(doc, _out_dir(args), "solve.json"))
    return 0


def _cmd_bifurcation(args) -> int:
    game = _build_game(args)
    if args.scheme not in ("first-order", "higher-order"):
        raise UsageError("bifurcation supports first-order or higher-order schemes")
    block = None
    if args.scheme == "higher-order":
        block = FeedbackBlock.high_pass(args.K, args.a, game.action_counts)
    parts = args.eps_range.split(",")
    if len(parts) != 2:
        raise UsageError(f"malformed --eps-range {args.eps_range!r}, expected LO,HI")
    try:
        eps_range = (float(parts[0]), float(parts[1]))
    except ValueError:
        raise UsageError(f"malformed --eps-range {args.eps_range!r}")
    result = bifurcation_epsilon(game, LearningParams(args.gamma, 1.0),
                                 block=block, eps_range=eps_range, tol=args.tol)
    doc = {"game": _game_doc(game), "scheme": args.scheme,
           "bifurcation": result.to_dict()}
    print(_emit_json(doc, _out_dir(args), "bifurcation.json"))
    return 0


def _verdict(traj, x_star) -> str:
    # too few recorded samples for the tail-window analysis is not a usage
    # error at this level; the trajectory files are still written
    try:
        return convergence_report(traj, x_star=x_star).status
    except UsageError:
        return "recorded"


def _each(run, *columns) -> list:
    """run(*item) per item of the zipped columns, or the
    IntegrationDivergedError that ended it.

    Each recursion's runner below returns this list over its seeds.  It
    looks run_discrete and run_stochastic up by name at call time, so
    rebinding those names in this module reaches every run."""
    results = []
    for item in zip(*columns):
        try:
            results.append(run(*item))
        except IntegrationDivergedError as err:
            results.append(err)
    return results


def _ode_runs(game, args, params, block, seeds, starts) -> list:
    """The seeds as one lockstep batch of one-row runs; a seed that diverges
    holds its own IntegrationDivergedError, and the others go on."""
    runs = [SimulationRun(params, z0, args.t_end, block) for z0 in starts]
    return simulate_batch(game, runs, args.dt, args.record_every)


def _discrete_runs(game, args, params, block, seeds, starts) -> list:
    return _each(lambda z0: run_discrete(game, params, z0, args.alpha, args.steps,
                                         args.record_every), starts)


def _stochastic_runs(game, args, params, block, seeds, starts) -> list:
    return _each(lambda seed, z0: run_stochastic(
        game, params, z0, steps=args.steps, rng=np.random.default_rng(seed),
        mode=args.mode, record_every=args.record_every), seeds, starts)


# Per scheme: CSV name prefix, the arguments summary.json records, runner,
# and whether it has the high-pass filter, is an ODE (Lyapunov values and the
# score-bound check) and gets a convergence_report verdict, not "recorded".
_ODE_OPTIONS = ("dt", "t_end", "record_every")
_SCHEMES = {
    "first-order": ("traj", _ODE_OPTIONS, _ode_runs, False, True, True),
    "higher-order": ("traj", _ODE_OPTIONS + ("K", "a"), _ode_runs, True, True, True),
    "discrete": ("discrete", ("alpha", "steps"), _discrete_runs, False, False, True),
    "stochastic": ("stoch", ("mode", "steps"), _stochastic_runs, False, False, False),
}


def _cmd_simulate(args) -> int:
    game = _build_game(args)
    out_dir = _out_dir(args)
    if out_dir is None:
        raise UsageError("simulate needs an output directory (--out or GAMEDYN_OUT)")
    prefix, options, runner, filtered, ode, judged = _SCHEMES[args.scheme]
    seeds = _parse_seeds(args.seeds)
    params = LearningParams(gamma=args.gamma, eps=args.eps)

    solved = rest_point(game, args.eps)
    x_star = solved.x_star if solved.converged else None
    block = p_mat = None
    if filtered:
        block = FeedbackBlock.high_pass(args.K, args.a, game.action_counts)
        p_mat = storage_matrix(block)

    summary = {"game": _game_doc(game), "scheme": args.scheme,
               "eps": args.eps, "gamma": args.gamma, "seeds": seeds,
               "rest_point": solved.to_dict() if solved.converged else None,
               "runs": {}, **{name: getattr(args, name) for name in options}}

    starts = [seeded_initial_scores(game.total_actions, seed) for seed in seeds]
    for seed, traj in zip(seeds, runner(game, args, params, block, seeds, starts)):
        if isinstance(traj, IntegrationDivergedError):
            summary["runs"][str(seed)] = {"status": "diverged",
                                          "last_good_time": traj.last_good_time,
                                          "terminal_x": None, "terminal_v": None}
            continue
        if ode and solved.converged:
            if block is None:
                values, _ = lyapunov_trace(traj, solved.z_star, args.eps,
                                           game.action_counts)
            else:
                values, _ = composite_lyapunov_trace(
                    traj, solved.z_star, args.eps, block, game.action_counts,
                    gamma=args.gamma, p_mat=p_mat)
            traj = replace(traj, lyapunov=values)
        csv_name = f"{prefix}_seed{seed}.csv"
        write_trajectory_csv(os.path.join(out_dir, csv_name), traj,
                             game.action_counts, ternary=args.emit_ternary)
        run = {"status": _verdict(traj, x_star) if judged else "recorded",
               "terminal_x": [float(v) for v in traj.strategies[-1]],
               "terminal_v": None if traj.lyapunov is None else float(traj.lyapunov[-1]),
               "csv": csv_name}
        # a finite ODE run that leaves the score bound took too large a step
        if ode:
            excess = score_bound_excess(traj, game, block)
            if excess > 0.0:
                run.update(status="unstable-step", score_bound_excess=excess)
        summary["runs"][str(seed)] = run

    print(_emit_json(summary, out_dir, "summary.json"))
    return 0


def _cmd_reproduce(args) -> int:
    ids = list(EXAMPLE_IDS) if args.example == "all" else [args.example]
    out_dir = _out_dir(args)
    reports = [run_example(example_id, out_dir=out_dir) for example_id in ids]
    for report in reports:
        print(format_report(report))
        print()
    failed = [r.example_id for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} examples passed"
          + (f"; failing: {', '.join(failed)}" if failed else ""))
    doc = {r.example_id: {"passed": r.passed, "rows": [vars(row) for row in r.rows]}
           for r in reports}
    _emit_json(doc, out_dir, "reproduce.json")
    return 0 if not failed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of main in a process, built on first use; parsing
    leaves it unchanged, so every call starts from the same defaults."""
    parser = argparse.ArgumentParser(
        prog="gamedyn",
        description="Score-based learning dynamics in finite games: "
                    "classification, rest points, simulation, bifurcations.")
    subs = parser.add_subparsers(dest="verb", required=True)

    subs.add_parser("list-games", help="list preset games")

    sub = subs.add_parser("classify", help="monotonicity classification")
    _add_game_options(sub)
    _add_out_option(sub)

    sub = subs.add_parser("solve", help="solve for the rest point")
    _add_game_options(sub)
    _add_out_option(sub)
    sub.add_argument("--eps", type=float, default=1.0, help="temperature")

    sub = subs.add_parser("simulate", help="integrate learning dynamics")
    _add_game_options(sub)
    _add_out_option(sub)
    sub.add_argument("--scheme", default="first-order", choices=tuple(_SCHEMES))
    sub.add_argument("--eps", type=float, default=1.0)
    sub.add_argument("--gamma", type=float, default=1.0)
    sub.add_argument("--K", type=float, default=1.0, help="filter gain")
    sub.add_argument("--a", type=float, default=1.0, help="filter cutoff")
    sub.add_argument("--dt", type=float, default=0.01)
    sub.add_argument("--t-end", type=float, default=500.0)
    sub.add_argument("--record-every", type=int, default=10)
    sub.add_argument("--seeds", default="0", help="comma-separated seed list")
    sub.add_argument("--alpha", type=float, default=0.05,
                     help="discrete-scheme step size")
    sub.add_argument("--steps", type=int, default=10000,
                     help="discrete/stochastic iteration count")
    sub.add_argument("--mode", default="full-info",
                     choices=("full-info", "bandit"),
                     help="stochastic payoff estimator")
    sub.add_argument("--emit-ternary", action="store_true",
                     help="add 2-simplex projection columns for 3-action players")

    sub = subs.add_parser("bifurcation", help="locate the stability threshold in eps")
    _add_game_options(sub)
    _add_out_option(sub)
    sub.add_argument("--scheme", default="first-order")
    sub.add_argument("--gamma", type=float, default=1.0)
    sub.add_argument("--K", type=float, default=1.0)
    sub.add_argument("--a", type=float, default=1.0)
    sub.add_argument("--eps-range", default="0.05,5.0")
    sub.add_argument("--tol", type=float, default=1e-4)

    sub = subs.add_parser("reproduce", help="run built-in scenario checks")
    sub.add_argument("example", help=f"scenario id or 'all'; ids: {', '.join(EXAMPLE_IDS)}")
    _add_out_option(sub)

    return parser


_COMMANDS = {
    "list-games": _cmd_list_games,
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "simulate": _cmd_simulate,
    "bifurcation": _cmd_bifurcation,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (UsageError, DomainError, ConfigurationError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NumericsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
