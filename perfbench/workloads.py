"""Workload definitions: seeded inputs, operations and output digests.

Every workload is a list of operations that one closed-loop client runs back
to back.  ``plan`` builds the inputs for a workload seed once (this is part of
the measured set-up) and returns a factory that makes a fresh operation list
for each pass.  An operation calls into the package through its public API or
``gamedyn.cli.main``; its ``digest`` reduces the output to the quantities the
golden file holds, and ``expected`` looks up the matching golden entry.

Seeds pick inputs from fixed pools (initial-score seeds, initial-score rows,
random tensor games).  The golden file covers every pool member, so any
workload seed is checked against outputs recorded from the same code.

Why these workloads:

cli_simulate    ``simulate`` commands, batch 1 per seed, all four schemes on
                matching (matmul), bimatrix and 3-player payoffs.  The
                per-call-overhead path users hit; the only workload that
                writes CSV, runs the discrete and stochastic schemes, the
                storage matrix and the Lyapunov monitors.
sweep_batch500  500 initial scores integrated in lockstep per call.  Per-call
                overhead is amortised and the payoff contraction dominates,
                so a change that only trims overhead should not move it.
catalogue       six ``reproduce`` scenarios: integrations at batch 5 and 1,
                seeds re-integrated within a scenario, both bifurcation
                bisections, and one scenario that fails by design (exit 1).
solve_sweep     analysis calls only, on dense random tensor games without a
                linear map (central-difference Jacobians, einsum payoffs)
                plus presets; without it the analysis layer goes unmeasured.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gamedyn
import gamedyn.cli

WORKLOADS = ("cli_simulate", "sweep_batch500", "catalogue", "solve_sweep")

# Pool sizes; the golden file holds one entry per pool member.
POOL_SEEDS = 32
POOL_ROWS = 1000
POOL_GAMES = 24

PRESETS = {
    "rps-l5": ("rps", {"l": 5.0}),
    "shapley": ("shapley", {}),
    "jordan_mp": ("jordan_mp", {}),
}

CLI_GAMES = {
    "rps-l5": ["--preset", "rps", "--param", "l=5"],
    "shapley": ["--preset", "shapley"],
    "jordan_mp": ["--preset", "jordan_mp"],
}
CLI_SCHEMES = {
    "first-order": ["--scheme", "first-order"],
    "higher-order": ["--scheme", "higher-order"],
    "discrete": ["--scheme", "discrete"],
    "stochastic-full-info": ["--scheme", "stochastic", "--mode", "full-info"],
    "stochastic-bandit": ["--scheme", "stochastic", "--mode", "bandit"],
}
CLI_DT = 0.02
CLI_T_END = 10.0
CLI_STEPS = 500
CLI_RECORD_EVERY = 10
CLI_COMMON = ["--dt", str(CLI_DT), "--t-end", str(CLI_T_END),
              "--steps", str(CLI_STEPS), "--record-every", str(CLI_RECORD_EVERY)]

SWEEP_ROWS = 500
SWEEP_DT = 0.1
SWEEP_T_END = 20.0
SWEEP_RECORD_EVERY = 2

CATALOGUE_IDS = ("1-l5", "3", "1-l8", "4-l5-eps0.5", "9", "8-Abar-eps0.2")

SOLVE_SHAPES = {"rand333": (3, 3, 3), "rand2222": (2, 2, 2, 2)}
SOLVE_GAMES_PER_SHAPE = 3
SOLVE_EPS_GRID = (2.0, 1.0, 0.5)
BIFURCATIONS = {
    "rps-l8/first-order": ("rps", {"l": 8.0}, False, (0.5, 3.0)),
    "rps-l8/higher-order": ("rps", {"l": 8.0}, True, (0.1, 3.0)),
    "two_player_rps-l5/first-order": ("two_player_rps", {"l": 5.0}, False, (0.2, 2.0)),
    "two_player_rps-l5/higher-order": ("two_player_rps", {"l": 5.0}, True, (0.05, 2.0)),
}


@dataclass
class Op:
    """One closed-loop operation.

    run() performs the program calls and is the only timed part; digest()
    turns run()'s return value into golden-comparable data; expected()
    returns the golden entry for the same inputs.  solves counts the analysis
    calls the operation makes, for solves_per_s.
    """

    key: str
    run: Callable[[], Any]
    digest: Callable[[Any], dict]
    expected: Callable[[dict], dict]
    solves: int = 0


# ------------------------------------------------------------------ digests

def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _csv_digest(path: str) -> dict:
    """Header, row count, the middle and last rows, and per-column sums."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    picks = sorted({(len(rows) - 1) // 2, len(rows) - 1})

    def cell(text: str):
        return None if text == "" else float(text)

    sums = []
    for col in range(len(header)):
        vals = [float(r[col]) for r in rows if r[col] != ""]
        sums.append(float(np.sum(vals)))
    return {"header": header, "rows": len(rows),
            "sample": {str(i): [cell(c) for c in rows[i]] for i in picks},
            "sums": sums}


# ------------------------------------------------------------- cli_simulate

def _cli_op(game_key: str, scheme_key: str, seeds: list[int], out_dir: str) -> Op:
    key = f"{game_key}/{scheme_key}"
    argv = (["simulate"] + CLI_GAMES[game_key] + CLI_SCHEMES[scheme_key] + CLI_COMMON
            + ["--seeds", ",".join(str(s) for s in seeds), "--out", out_dir])

    def digest(code: int) -> dict:
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        rp = summary["rest_point"]
        runs = {}
        for seed, run in summary["runs"].items():
            runs[seed] = {"status": run["status"],
                          "terminal_x": run["terminal_x"],
                          "terminal_v": run["terminal_v"],
                          "csv": _csv_digest(os.path.join(out_dir, run["csv"]))}
        shutil.rmtree(out_dir)
        return {"exit_code": code,
                "rest_point": None if rp is None else
                {"status": rp["status"], "x": rp["x"], "z": rp["z"]},
                "runs": runs}

    def expected(golden: dict) -> dict:
        entry = golden["cli_simulate"][key]
        return {"exit_code": entry["exit_code"], "rest_point": entry["rest_point"],
                "runs": {str(s): entry["runs"][str(s)] for s in seeds}}

    return Op(key, lambda: gamedyn.cli.main(argv), digest, expected)


def _plan_cli(rng, tmp: str, size: str, pool: bool):
    combos = [(g, s) for g in CLI_GAMES for s in CLI_SCHEMES]
    if pool:
        seed_lists = [list(range(POOL_SEEDS))] * len(combos)
    else:
        combos = [combos[i] for i in rng.permutation(len(combos))]
        seed_lists = [sorted(int(s) for s in rng.choice(POOL_SEEDS, 2, replace=False))
                      for _ in combos]
        if size == "tiny":
            combos, seed_lists = combos[:3], seed_lists[:3]

    def make_ops() -> list[Op]:
        return [_cli_op(g, s, seeds, os.path.join(tmp, f"op{i:02d}"))
                for i, ((g, s), seeds) in enumerate(zip(combos, seed_lists))]

    return make_ops


# ------------------------------------------------------------ sweep_batch500

def pool_rows(n: int) -> np.ndarray:
    """The fixed pool of initial-score rows for games with n actions."""
    return np.random.default_rng(1000 + n).uniform(-1.0, 1.0, (POOL_ROWS, n))


_STATUS_CODE = {"converged": "c", "limit-cycle": "l", "undetermined": "u"}


def _sweep_op(game_key: str, game, scheme: str, block, z0: np.ndarray,
              rows: list[int]) -> Op:
    key = f"{game_key}/{scheme}"
    params = gamedyn.LearningParams(gamma=1.0, eps=1.0)

    def run():
        if scheme == "higher-order":
            trajs = gamedyn.simulate_higher_order(
                game, params, block, z0, dt=SWEEP_DT, t_end=SWEEP_T_END,
                record_every=SWEEP_RECORD_EVERY)
        else:
            trajs = gamedyn.simulate_first_order(
                game, params, z0, dt=SWEEP_DT, t_end=SWEEP_T_END,
                record_every=SWEEP_RECORD_EVERY)
        reports = [gamedyn.convergence_report(t) for t in trajs]
        return trajs, reports

    def digest(out) -> dict:
        trajs, reports = out
        return {"statuses": "".join(_STATUS_CODE[r.status] for r in reports),
                "terminal_x": [_floats(t.strategies[-1]) for t in trajs]}

    def expected(golden: dict) -> dict:
        entry = golden["sweep_batch500"][key]
        return {"statuses": "".join(entry["statuses"][i] for i in rows),
                "terminal_x": [entry["terminal_x"][i] for i in rows]}

    return Op(key, run, digest, expected)


def _plan_sweep(rng, tmp: str, size: str, pool: bool):
    games = {k: gamedyn.preset(name, params) for k, (name, params) in PRESETS.items()}
    blocks = {k: gamedyn.FeedbackBlock.high_pass(1.0, 1.0, g.action_counts)
              for k, g in games.items()}
    specs = []
    for game_key, game in games.items():
        table = pool_rows(game.total_actions)
        for scheme in ("first-order", "higher-order"):
            if pool:
                rows = list(range(POOL_ROWS))
            else:
                count = 8 if size == "tiny" else SWEEP_ROWS
                rows = [int(r) for r in rng.choice(POOL_ROWS, count, replace=False)]
            specs.append((game_key, game, scheme, blocks[game_key], table[rows], rows))
    if not pool:
        specs = [specs[i] for i in rng.permutation(len(specs))]

    def make_ops() -> list[Op]:
        return [_sweep_op(*spec) for spec in specs]

    return make_ops


# ----------------------------------------------------------------- catalogue

def _catalogue_op(example_id: str, out_dir: str) -> Op:
    argv = ["reproduce", example_id, "--out", out_dir]

    def digest(code: int) -> dict:
        with open(os.path.join(out_dir, "reproduce.json")) as fh:
            doc = json.load(fh)[example_id]
        shutil.rmtree(out_dir)
        return {"exit_code": code, "passed": doc["passed"],
                "checks": [[r["label"], r["outcome"], r["observed"]] for r in doc["rows"]]}

    def expected(golden: dict) -> dict:
        return golden["catalogue"][example_id]

    return Op(example_id, lambda: gamedyn.cli.main(argv), digest, expected)


def _plan_catalogue(rng, tmp: str, size: str, pool: bool):
    ids = list(CATALOGUE_IDS)
    if not pool:
        ids = [ids[i] for i in rng.permutation(len(ids))]
        if size == "tiny":
            ids = ["8-Abar-eps0.2"]

    def make_ops() -> list[Op]:
        return [_catalogue_op(sid, os.path.join(tmp, f"op{i:02d}"))
                for i, sid in enumerate(ids)]

    return make_ops


# --------------------------------------------------------------- solve_sweep

def random_game_doc(shape_key: str, index: int) -> dict:
    """Pool member ``index`` of the dense random tensor games of one shape."""
    counts = SOLVE_SHAPES[shape_key]
    rng = np.random.default_rng([len(counts), index])
    size = int(np.prod(counts))
    return {"name": f"{shape_key}-{index:02d}", "players": len(counts),
            "action_counts": list(counts),
            "payoffs": [rng.uniform(-1.0, 1.0, size).tolist() for _ in counts]}


def _classify_digest(report) -> dict:
    return {"class": report.monotonicity_class, "exact": bool(report.exact),
            "lambda_max": float(report.lambda_max)}


def _rest_point_digest(result) -> dict:
    return {"status": result.status,
            "x": _floats(result.x_star) if result.converged else None}


def _multi_start_digest(results) -> dict:
    xs = sorted(_floats(np.round(r.x_star, 12)) for r in results)
    return {"count": len(results), "x": xs}


def _bifurcation_digest(result) -> dict:
    return {"status": result.status, "eps_star": result.eps_star}


def _game_ops(game_key: str, game) -> list[Op]:
    """classify, a warm-started rest-point continuation down the eps grid,
    then a multi-start solve at the last eps."""
    warm = {"z": None}

    def expected_for(key):
        return lambda golden: golden["solve_sweep"][key]

    def rest_point_at(eps):
        def run():
            result = gamedyn.rest_point(game, eps, z0=warm["z"])
            warm["z"] = result.z_star
            return result
        return run

    ops = [Op(f"{game_key}/classify", lambda: gamedyn.classify(game),
              _classify_digest, expected_for(f"{game_key}/classify"), solves=1)]
    for eps in SOLVE_EPS_GRID:
        key = f"{game_key}/rest_point@{eps:g}"
        ops.append(Op(key, rest_point_at(eps), _rest_point_digest,
                      expected_for(key), solves=1))
    eps = SOLVE_EPS_GRID[-1]
    key = f"{game_key}/multi_start@{eps:g}"
    ops.append(Op(key, lambda: gamedyn.multi_start_rest_points(game, eps),
                  _multi_start_digest, expected_for(key), solves=1))
    return ops


def _bifurcation_op(key: str, game, block, eps_range) -> Op:
    params = gamedyn.LearningParams(gamma=1.0, eps=1.0)
    return Op(f"bifurcation/{key}",
              lambda: gamedyn.bifurcation_epsilon(game, params, block=block,
                                                  eps_range=eps_range),
              _bifurcation_digest,
              lambda golden: golden["solve_sweep"][f"bifurcation/{key}"], solves=1)


def _plan_solve(rng, tmp: str, size: str, pool: bool):
    games = {}
    for shape_key in SOLVE_SHAPES:
        if pool:
            picks = range(POOL_GAMES)
        else:
            count = 1 if size == "tiny" else SOLVE_GAMES_PER_SHAPE
            picks = sorted(int(i) for i in rng.choice(POOL_GAMES, count, replace=False))
        for i in picks:
            doc = random_game_doc(shape_key, i)
            games[doc["name"]] = gamedyn.game_from_dict(doc)
    if pool or size != "tiny":
        games.update({k: gamedyn.preset(name, params)
                      for k, (name, params) in PRESETS.items()})
    bifs = {}
    for key, (name, params, filtered, eps_range) in BIFURCATIONS.items():
        game = gamedyn.preset(name, params)
        block = (gamedyn.FeedbackBlock.high_pass(1.0, 1.0, game.action_counts)
                 if filtered else None)
        bifs[key] = (game, block, eps_range)
    if size == "tiny":
        bifs = dict(list(bifs.items())[:1])
    groups = [("game", k) for k in games] + [("bifurcation", k) for k in bifs]
    if not pool:
        groups = [groups[i] for i in rng.permutation(len(groups))]

    def make_ops() -> list[Op]:
        ops = []
        for kind, key in groups:
            if kind == "game":
                ops += _game_ops(key, games[key])
            else:
                ops.append(_bifurcation_op(key, *bifs[key]))
        return ops

    return make_ops


_PLANNERS = {"cli_simulate": _plan_cli, "sweep_batch500": _plan_sweep,
             "catalogue": _plan_catalogue, "solve_sweep": _plan_solve}


def plan(workload: str, seed: int, tmp: str, size: str = "full") -> Callable[[], list[Op]]:
    """Generate the inputs of ``workload`` for ``seed``; return an op factory."""
    return _PLANNERS[workload](np.random.default_rng(seed), tmp, size, pool=False)


def pool_plan(workload: str, tmp: str) -> Callable[[], list[Op]]:
    """Operations covering every pool member, for writing the golden file."""
    return _PLANNERS[workload](None, tmp, "full", pool=True)
