"""End-to-end tests of the command-line interface, run in process."""

import csv
import json
import warnings

import numpy as np
import pytest
from address_limit import run_capped
from tensor_reference import random_tensor_game

from gamedyn import (GameSpec, IntegrationDivergedError, RestPointResult, preset,
                     save_game, seeded_initial_scores, simulate_batch)
from gamedyn import cli
from gamedyn.cli import main


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    monkeypatch.delenv("GAMEDYN_OUT", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_games(capsys):
    code, out, _ = run_cli(capsys, "list-games")
    assert code == 0
    names = set(out.split())
    assert {"rps", "anticoord123", "matching_pennies", "two_player_rps",
            "shapley", "network_zero_sum_mp", "jordan_mp", "modified_rps_A",
            "modified_rps_Abar", "modified_jordan"} <= names


def test_classify_stdout_and_file(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "classify", "--preset", "rps",
                           "--param", "l=5", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["classification"]["class"] == "hypo-monotone"
    assert doc["classification"]["mu"] == pytest.approx(2.0)
    on_disk = json.loads((tmp_path / "classify.json").read_text())
    assert on_disk == doc


def test_solve_frozen_value(capsys):
    code, out, _ = run_cli(capsys, "solve", "--preset", "anticoord123")
    assert code == 0
    doc = json.loads(out)
    np.testing.assert_allclose(doc["rest_point"]["x"],
                               [0.4071970967, 0.3215972394, 0.2712056639],
                               atol=1e-6)
    assert doc["rest_point"]["status"] == "converged"


def test_env_dir_overrides_flag(tmp_path, monkeypatch, capsys):
    env_dir = tmp_path / "from_env"
    flag_dir = tmp_path / "from_flag"
    monkeypatch.setenv("GAMEDYN_OUT", str(env_dir))
    code, _, _ = run_cli(capsys, "solve", "--preset", "anticoord123",
                         "--out", str(flag_dir))
    assert code == 0
    assert (env_dir / "solve.json").exists()
    assert not flag_dir.exists()


def test_simulate_is_bitwise_deterministic(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run_cli(capsys, "simulate", "--preset", "rps",
                             "--param", "l=2.5", "--dt", "0.05",
                             "--t-end", "5", "--record-every", "10",
                             "--seeds", "0,1", "--out", str(d))
        assert code == 0
    for name in ("traj_seed0.csv", "traj_seed1.csv", "summary.json"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
    summary = json.loads((dirs[0] / "summary.json").read_text())
    assert summary["scheme"] == "first-order"
    assert set(summary["runs"]) == {"0", "1"}
    for run in summary["runs"].values():
        assert run["csv"].startswith("traj_seed")
        assert len(run["terminal_x"]) == 3


def test_simulate_requires_output_dir(capsys):
    code, _, err = run_cli(capsys, "simulate", "--preset", "rps",
                           "--param", "l=1")
    assert code == 2
    assert "error:" in err


def test_simulate_higher_order_columns(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "simulate", "--preset", "rps",
                         "--param", "l=2.5", "--scheme", "higher-order",
                         "--dt", "0.05", "--t-end", "10",
                         "--record-every", "20", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "traj_seed0.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header == (["t"] + [f"z_{i}" for i in (1, 2, 3)]
                      + [f"x_{i}" for i in (1, 2, 3)]
                      + [f"xi_{i}" for i in (1, 2, 3)] + ["V"])
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["K"] == 1.0 and summary["a"] == 1.0
    assert summary["runs"]["0"]["terminal_v"] is not None


def test_simulate_emit_ternary(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "simulate", "--preset", "shapley",
                         "--dt", "0.05", "--t-end", "5",
                         "--record-every", "10", "--emit-ternary",
                         "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / "traj_seed0.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[-4:] == ["tern1_u", "tern1_v", "tern2_u", "tern2_v"]


def test_game_file_source(tmp_path, capsys):
    path = tmp_path / "game.json"
    save_game(path, preset("two_player_rps", {"l": 5.0}))
    code, out, _ = run_cli(capsys, "classify", "--game", str(path))
    assert code == 0
    assert json.loads(out)["classification"]["mu"] == pytest.approx(2.0)


def test_nine_player_game_file(tmp_path, capsys):
    """A game with more players than the eight letters a-h runs in every
    verb that integrates or solves it."""
    path = tmp_path / "g9.json"
    save_game(path, random_tensor_game((2,) * 9, 9))
    argvs = [["classify"], ["solve"]] + [
        ["simulate", "--scheme", scheme, "--t-end", "5", "--dt", "0.05", "--steps", "200",
         "--out", str(tmp_path / scheme)]
        for scheme in ("first-order", "higher-order", "discrete", "stochastic")]
    for argv in argvs:
        code, _, err = run_cli(capsys, *argv, "--game", str(path))
        assert (code, err) == (0, ""), argv


def test_one_player_game_file(tmp_path, capsys):
    """A one-player game that is not a matching game runs in every scheme."""
    path = tmp_path / "g1.json"
    save_game(path, GameSpec((3,), (np.array([0.5, -1.0, 2.0]),)))
    for scheme in ("first-order", "higher-order", "discrete", "stochastic"):
        code, _, err = run_cli(capsys, "simulate", "--scheme", scheme, "--t-end", "5",
                               "--steps", "200", "--out", str(tmp_path / scheme),
                               "--game", str(path))
        assert (code, err) == (0, ""), scheme


def test_game_source_validation(tmp_path, capsys):
    path = tmp_path / "game.json"
    save_game(path, preset("shapley"))
    cases = [
        ("classify", "--preset", "rps", "--param", "l=1", "--game", str(path)),
        ("classify",),
        ("classify", "--preset", "rps", "--param", "l"),
        ("classify", "--preset", "rps", "--param", "l=abc"),
        ("classify", "--game", str(path), "--param", "l=1"),
        ("classify", "--game", str(tmp_path / "missing.json")),
        ("classify", "--preset", "nonsense"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "error:" in err


def _command_outcomes(capsys, root, commands):
    """Run commands in turn in this process; per command the exit code
    (argparse's SystemExit code included), stdout, stderr and the bytes of
    every file it wrote under root/<index>."""
    outcomes = []
    for i, argv in enumerate(commands):
        out = root / str(i)
        try:
            code = main(argv + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        files = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                 if out.exists() else {})
        outcomes.append((code, captured.out, captured.err, files))
    return outcomes


def test_reused_parser_leaks_nothing_between_calls(tmp_path, monkeypatch, capsys):
    """main keeps one parser per process.  A simulate command with
    non-default options, then a usage error, then commands that leave those
    options at their defaults write the bytes that a freshly built parser
    gives for each."""
    assert cli.build_parser() is cli.build_parser()
    game = ["simulate", "--preset", "shapley"]
    commands = [
        game + ["--scheme", "stochastic", "--steps", "40", "--emit-ternary",
                "--mode", "bandit", "--seeds", "0,3"],
        game + ["--scheme", "stochastic", "--mode", "oracle"],
        game + ["--scheme", "stochastic", "--steps", "40"],
        game + ["--t-end", "1"],
    ]
    reused = _command_outcomes(capsys, tmp_path / "reused", commands)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _command_outcomes(capsys, tmp_path / "fresh", commands)
    assert [code for code, *_ in reused] == [0, 2, 0, 0]
    assert "tern1_u" in reused[0][3]["stoch_seed3.csv"].decode()
    assert reused == fresh


def test_unknown_scheme_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--preset", "rps", "--param", "l=1",
              "--scheme", "runge"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_malformed_seeds(tmp_path, capsys):
    """Seeds that are not integers, empty, negative or repeated are usage
    errors."""
    for seeds in ("a,b", "1,,2", ",3,", "-1", "3,3"):
        code, _, err = run_cli(capsys, "simulate", "--preset", "rps",
                               "--param", "l=1", f"--seeds={seeds}",
                               "--out", str(tmp_path))
        assert code == 2
        assert "seeds" in err
        assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("command", ["solve", "classify"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_payoff_parameter_rejected(command, value, capsys):
    code, out, err = run_cli(capsys, command, "--preset", "rps",
                             "--param", f"l={value}")
    assert code == 2
    assert out == ""
    assert "payoff tensors must be finite" in err


@pytest.mark.parametrize("scheme", ["discrete", "stochastic"])
def test_record_every_zero_rejected(scheme, tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--preset", "rps",
                           "--param", "l=2", "--scheme", scheme,
                           "--record-every", "0", "--out", str(tmp_path))
    assert code == 2
    assert "record_every" in err


@pytest.mark.parametrize("scheme", ["discrete", "stochastic"])
def test_negative_steps_rejected(scheme, tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--preset", "rps",
                           "--param", "l=2", "--scheme", scheme,
                           "--steps", "-3", "--out", str(tmp_path))
    assert code == 2
    assert "steps must be >= 0" in err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("argv", [
    ("solve",),
    ("simulate", "--scheme", "first-order"),
    ("simulate", "--scheme", "discrete"),
])
def test_temperature_too_small_rejected(argv, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, argv[0], "--preset", "rps",
                                 "--param", "l=2", "--eps", "1e-320",
                                 *argv[1:], "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "temperature eps=1e-320 is too small" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_simulate_overflow_is_reported_as_divergence(tmp_path, capsys):
    """A step that overflows between samples is a diverged run in
    summary.json, with no RuntimeWarning, no usage error and no CSV, in
    every scheme.  last_good_time is written as the iteration k, an
    integer, for the recursions, and as a float time for the ODE schemes."""
    commands = {
        "first-order": (["--param", "l=8", "--dt", "40", "--t-end", "40000",
                         "--record-every", "500"], 0.0, "0.0"),
        "higher-order": (["--param", "l=8", "--scheme", "higher-order", "--dt", "40",
                          "--t-end", "40000", "--record-every", "500"], 0.0, "0.0"),
        "discrete": (["--param", "l=5", "--scheme", "discrete", "--gamma", "50",
                      "--alpha", "1", "--steps", "2000", "--record-every", "100"],
                     100, "100"),
        "stochastic": (["--param", "l=5", "--scheme", "stochastic", "--gamma", "1e6",
                        "--alpha", "1", "--steps", "500", "--record-every", "100"],
                       0, "0"),
    }
    for scheme, (argv, last_good, text) in commands.items():
        out = tmp_path / scheme
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, "simulate", "--preset", "rps", *argv,
                                   "--out", str(out))
        assert code == 0
        assert err == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        summary = (out / "summary.json").read_text()
        run = json.loads(summary)["runs"]["0"]
        assert run == {"status": "diverged", "last_good_time": last_good,
                       "terminal_x": None, "terminal_v": None}
        # 100 == 100.0 in Python: the bytes tell an int from a float
        assert f'"last_good_time": {text},\n' in summary
        assert not list(out.glob("*.csv"))


@pytest.mark.parametrize("dt", ["0.6", "0.4"])
def test_horizon_off_the_step_grid_is_a_usage_error(dt, tmp_path, capsys):
    """--t-end that is not a whole number of --dt steps exits 2 before any
    output, instead of ending past it or short of it."""
    code, out, err = run_cli(capsys, "simulate", "--preset", "rps", "--param", "l=5",
                             "--dt", dt, "--t-end", "1.0", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert "not a whole number of steps" in err
    assert not (tmp_path / "summary.json").exists()


HUGE_RECORD_COMMANDS = {
    "first-order": ["--dt", "1e-300", "--t-end", "1"],
    "discrete": ["--scheme", "discrete", "--steps", "1000000000000"],
    "stochastic": ["--scheme", "stochastic", "--steps", "100000000000"],
    "discrete-beyond-float": ["--scheme", "discrete", "--steps", "1" + "0" * 400],
}


@pytest.mark.parametrize("scheme", list(HUGE_RECORD_COMMANDS))
def test_record_that_cannot_be_held_is_a_usage_error(scheme, tmp_path):
    """A run whose record numpy cannot allocate or index exits 2 with one
    error line and writes nothing, in a child capped at 1 GiB of address
    space (it raised MemoryError there, and without a cap exhausted the
    machine's memory)."""
    out = tmp_path / "out"
    argv = ["simulate", "--preset", "rps", "--param", "l=5",
            *HUGE_RECORD_COMMANDS[scheme], "--out", str(out)]
    proc = run_capped("import json, sys\nfrom gamedyn.cli import main\n"
                      "sys.exit(main(json.loads(sys.argv[1])))", json.dumps(argv))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: the record cannot be held in memory: ")
    assert list(out.iterdir()) == []


def test_storage_system_that_cannot_be_held_is_a_usage_error(tmp_path):
    """The filtered scheme on a 150-action game exits 2 with one error line
    when its storage system cannot be allocated, in a child capped at 1 GiB
    of address space (it exited 1 with numpy's MemoryError traceback)."""
    path = tmp_path / "g150.json"
    save_game(path, GameSpec((150,), (np.eye(150),), matching=True))
    out = tmp_path / "out"
    argv = ["simulate", "--game", str(path), "--scheme", "higher-order", "--out", str(out)]
    proc = run_capped("import json, sys\nfrom gamedyn.cli import main\n"
                      "sys.exit(main(json.loads(sys.argv[1])))", json.dumps(argv))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: the storage system cannot be held in memory: ")
    assert list(out.iterdir()) == []


def _refuse_constant(constant):
    raise ValueError(f"not strict JSON: {constant}")


def test_every_json_file_is_strict_json(tmp_path, capsys):
    """Every JSON file of every verb, and what it prints, parses with no NaN
    or Infinity: a payoff near the float limit has infinite eigenvalues,
    written as null (classify wrote -Infinity and Infinity)."""
    argvs = {"classify": ["--preset", "two_player_rps", "--param", "l=1e308"],
             "solve": ["--preset", "rps", "--param", "l=1e308", "--eps", "1e-300"],
             "bifurcation": ["--preset", "rps", "--param", "l=8", "--eps-range", "0.5,3"],
             "simulate": ["--preset", "rps", "--param", "l=8", "--scheme", "higher-order",
                          "--dt", "3.5", "--t-end", "1400", "--record-every", "20"],
             "reproduce": ["8-Abar"]}
    docs = {}
    for verb, args in argvs.items():
        out = tmp_path / verb
        code, stdout, _ = run_cli(capsys, verb, *args, "--out", str(out))
        assert code == 0, verb
        [path] = out.glob("*.json")
        docs[verb] = json.loads(path.read_text(), parse_constant=_refuse_constant)
        if verb != "reproduce":
            assert json.loads(stdout, parse_constant=_refuse_constant) == docs[verb]
    assert None in docs["classify"]["classification"]["full_eigenvalues"]
    assert docs["simulate"]["runs"]["0"]["terminal_v"] is None


@pytest.mark.parametrize("l", ["1e308", "1e307"])
def test_bifurcation_near_the_float_limit_is_a_numerical_failure(l, capsys):
    """Payoffs near the float limit exit 3 with one error line and no
    warning (1e308 ended in an OverflowError traceback, 1e307 printed a
    soft-max overflow warning first)."""
    code, out, err = run_cli(capsys, "bifurcation", "--preset", "rps", "--param", f"l={l}")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


_FILTERED = ("simulate", "--preset", "rps", "--param", "l=5", "--scheme", "higher-order",
             "--t-end", "1")


@pytest.mark.parametrize("argv", [
    (*_FILTERED, "--K", "1e308"),
    (*_FILTERED, "--a", "1e-320"),
    (*_FILTERED, "--a", "1e308"),
    ("bifurcation", "--preset", "rps", "--param", "l=8", "--gamma", "1e308"),
    ("bifurcation", "--preset", "rps", "--param", "l=8", "--scheme", "higher-order",
     "--K", "1e308"),
], ids=["simulate-K", "simulate-a-subnormal", "simulate-a", "bifurcation-gamma",
        "bifurcation-K"])
def test_overflowing_storage_or_linearization_is_a_numerical_failure(argv, tmp_path,
                                                                     capsys):
    """A filter or learning rate whose storage matrix or linearization
    overflows exits 3 with one error line, no warning and no summary.json
    (the storage eigenvalues and the bifurcation spectrum ended in a
    LinAlgError traceback, and --a 1e308 warned, took P = 0 and went on)."""
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("doc", [
    {"players": 2, "action_counts": [2, 2],
     "payoffs": [[1e308, 0, 0, 1], [1e308, 0, 0, 1]]},
    {"players": 3, "action_counts": [2, 2, 2],
     "payoffs": [[1e308, -1e308, 0, 1, 2, 3, 4, 5], [1, -1e308, 0, 1e308, 2, 3, 4, 5],
                 [0, 1, 2, 3, 4, 5, 6, 1e308]]},
    {"players": 2, "action_counts": [2, 2],
     "payoffs": [[1.7e308, -1.7e308, 0, 1.7e308], [0, 0, 0, 0]]},
], ids=["exact", "sampled", "exact-compressed"])
def test_overflowing_symmetrized_map_is_a_numerical_failure(doc, tmp_path, capsys):
    """A game whose Phi + Phi^T (exact) or DU + DU^T at a sampled profile
    overflows, or whose finite Phi + Phi^T overflows once compressed to the
    tangent space, exits 3 with one error line, no warning and no
    classify.json (the first two ended in a LinAlgError traceback after an
    overflow warning, the third wrote null eigenvalues as hypo-monotone)."""
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "classify", "--game", str(path), "--out", str(out_dir))
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (out_dir / "classify.json").exists()


def test_solve_near_the_float_limit_reports_not_found(capsys):
    """A rest point the solver cannot reach without overflow is not-found,
    with nothing on stderr (it printed an overflow warning)."""
    code, out, err = run_cli(capsys, "solve", "--preset", "rps", "--param", "l=1e308",
                             "--eps", "1e-300")
    assert (code, err) == (0, "")
    assert json.loads(out)["rest_point"]["status"] == "not-found"


def _single_seed_runs(capsys, tmp_path, argv, seeds):
    """Run argv once per seed; return each seed's output directory and
    summary, checking every run exits 0."""
    outs = {}
    for seed in seeds:
        out = tmp_path / f"seed{seed}"
        code, _, _ = run_cli(capsys, *argv, "--seeds", str(seed), "--out", str(out))
        assert code == 0
        outs[seed] = (out, json.loads((out / "summary.json").read_text()))
    return outs


@pytest.mark.parametrize("scheme", ["first-order", "higher-order"])
@pytest.mark.parametrize("game", [["--preset", "rps", "--param", "l=5"],
                                  ["--preset", "shapley"], ["--preset", "jordan_mp"]],
                         ids=["rps-l5", "shapley", "jordan_mp"])
def test_simulate_seeds_equal_single_seed_commands(game, scheme, tmp_path, capsys):
    """The seeds of one command are one lockstep batch, and every file it
    writes equals what a command per seed writes, byte for byte."""
    argv = ["simulate", *game, "--scheme", scheme, "--dt", "0.02", "--t-end", "20",
            "--record-every", "10", "--emit-ternary"]
    seeds = [0, 3, 17]
    code, _, _ = run_cli(capsys, *argv, "--seeds", "0,3,17", "--out", str(tmp_path / "all"))
    assert code == 0
    singles = _single_seed_runs(capsys, tmp_path, argv, seeds)
    expect = dict(singles[0][1], seeds=seeds,
                  runs={str(s): singles[s][1]["runs"][str(s)] for s in seeds})
    assert ((tmp_path / "all" / "summary.json").read_text()
            == json.dumps(expect, indent=2, sort_keys=True) + "\n")
    for seed, (out, _) in singles.items():
        name = f"traj_seed{seed}.csv"
        assert (tmp_path / "all" / name).read_bytes() == (out / name).read_bytes()


def test_simulate_divergence_is_reported_per_seed(tmp_path, capsys):
    """Each seed of a batch that diverges keeps the status and last good
    time of its own command."""
    argv = ["simulate", "--preset", "rps", "--param", "l=8", "--dt", "40",
            "--t-end", "40000", "--record-every", "500"]
    code, _, err = run_cli(capsys, *argv, "--seeds", "0,1", "--out", str(tmp_path / "all"))
    assert code == 0 and err == ""
    runs = json.loads((tmp_path / "all" / "summary.json").read_text())["runs"]
    for seed, (_, summary) in _single_seed_runs(capsys, tmp_path, argv, [0, 1]).items():
        assert runs[str(seed)] == summary["runs"][str(seed)]
        assert runs[str(seed)]["status"] == "diverged"


def test_simulate_divergence_of_one_seed_spares_the_others(tmp_path, capsys, monkeypatch):
    """When only seed 1 diverges, its slot of the batch holds its own
    failure, and seed 0 keeps its own trajectory and seed 1 its own last
    good time."""
    doomed = seeded_initial_scores(3, 1)

    def diverge_on_seed_1(game, runs, *args, **kwargs):
        return [IntegrationDivergedError("non-finite state", last_good_time=7.0)
                if np.array_equal(run.z0, doomed) else traj
                for run, traj in zip(runs, simulate_batch(game, runs, *args, **kwargs))]

    argv = ["simulate", "--preset", "rps", "--param", "l=5", "--dt", "0.05",
            "--t-end", "5", "--record-every", "10"]
    alone = _single_seed_runs(capsys, tmp_path, argv, [0])[0]
    monkeypatch.setattr(cli, "simulate_batch", diverge_on_seed_1)
    code, _, _ = run_cli(capsys, *argv, "--seeds", "0,1", "--out", str(tmp_path / "all"))
    assert code == 0
    runs = json.loads((tmp_path / "all" / "summary.json").read_text())["runs"]
    assert runs["0"] == alone[1]["runs"]["0"]
    assert ((tmp_path / "all" / "traj_seed0.csv").read_bytes()
            == (alone[0] / "traj_seed0.csv").read_bytes())
    assert runs["1"] == {"status": "diverged", "last_good_time": 7.0,
                         "terminal_x": None, "terminal_v": None}


def test_simulate_unstable_step_is_reported(tmp_path, capsys):
    """A finite run that breaks the score bound |z_i| <= max(|z_i(0)|, M)
    took too large a step: its status says so instead of a verdict.  A
    storage value that overflowed on the way is null in summary.json, which
    stays strict JSON, and no RuntimeWarning is printed."""
    code, _, err = run_cli(capsys, "simulate", "--preset", "rps", "--param", "l=5",
                           "--dt", "5", "--t-end", "500", "--out", str(tmp_path))
    assert code == 0 and err == ""
    run = json.loads((tmp_path / "summary.json").read_text())["runs"]["0"]
    assert run["status"] == "unstable-step"
    assert run["score_bound_excess"] > 1e100
    assert (tmp_path / run["csv"]).exists()

    def refuse(constant):
        raise ValueError(f"summary.json holds {constant}")

    argv = ["simulate", "--preset", "rps", "--param", "l=8", "--dt", "3.5",
            "--t-end", "1400", "--record-every", "20", "--seeds", "0"]
    for scheme, terminal_v in [("higher-order", None), ("first-order", 1.93279306511902e+175)]:
        out = tmp_path / scheme
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(capsys, *argv, "--scheme", scheme, "--out", str(out))
        assert code == 0 and err == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        run = json.loads((out / "summary.json").read_text(),
                         parse_constant=refuse)["runs"]["0"]
        assert run["status"] == "unstable-step"
        assert run["terminal_v"] == terminal_v


def test_numerics_error_exits_3(monkeypatch, capsys):
    """A solver that finds no rest point is a numerical failure: exit code
    3 and one error line, not a traceback or a usage error."""
    def not_found(game, eps, **kwargs):
        n = game.total_actions
        return RestPointResult(z_star=np.zeros(n), x_star=np.full(n, 1.0 / n),
                               residual=1.0, iterations=1, method="damped",
                               status="not-found", eps=eps)

    monkeypatch.setattr("gamedyn.analysis.rest_point", not_found)
    monkeypatch.setattr("gamedyn.analysis.multi_start_rest_points", lambda *a, **k: [])
    code, out, err = run_cli(capsys, "bifurcation", "--preset", "rps", "--param", "l=8",
                             "--eps-range", "0.5,3")
    assert code == 3
    assert out == ""
    assert err == "error: no rest point found at eps=0.5\n"


def test_reproduce_divergence_exits_3(monkeypatch, capsys):
    """A divergence that escapes a scenario is a numerical failure too."""
    def diverge(*args, **kwargs):
        raise IntegrationDivergedError("non-finite state at t=1", last_good_time=0.5)

    monkeypatch.setattr("gamedyn.reproduce.simulate_batch", diverge)
    code, out, err = run_cli(capsys, "reproduce", "1-l1")
    assert code == 3
    assert out == ""
    assert err == "error: non-finite state at t=1\n"


def test_reproduce_exits_3_on_the_earliest_failed_row(monkeypatch, capsys):
    """A scenario whose batch holds failed rows raises the failure with the
    earliest last good time, however the rows are ordered."""
    def fail_two_rows(game, runs, *args, **kwargs):
        trajs = simulate_batch(game, runs, *args, **kwargs)
        trajs[0][1] = IntegrationDivergedError("non-finite state at t=3", last_good_time=2.5)
        trajs[-1][0] = IntegrationDivergedError("non-finite state at t=1", last_good_time=0.5)
        return trajs

    monkeypatch.setattr("gamedyn.reproduce.simulate_batch", fail_two_rows)
    code, out, err = run_cli(capsys, "reproduce", "1-l1")
    assert code == 3
    assert out == ""
    assert err == "error: non-finite state at t=1\n"


def test_discrete_scheme(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "simulate", "--preset", "anticoord123",
                         "--scheme", "discrete", "--alpha", "0.1",
                         "--steps", "300", "--record-every", "10",
                         "--out", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["alpha"] == 0.1 and summary["steps"] == 300
    run = summary["runs"]["0"]
    assert run["csv"] == "discrete_seed0.csv"
    assert run["status"] == "converged"
    np.testing.assert_allclose(run["terminal_x"],
                               [0.4071970967, 0.3215972394, 0.2712056639],
                               atol=1e-6)


def test_stochastic_scheme(tmp_path, capsys):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        code, _, _ = run_cli(capsys, "simulate", "--preset", "rps",
                             "--param", "l=1", "--scheme", "stochastic",
                             "--mode", "bandit", "--steps", "200",
                             "--record-every", "20", "--out", str(d))
        assert code == 0
    assert ((dirs[0] / "stoch_seed0.csv").read_bytes()
            == (dirs[1] / "stoch_seed0.csv").read_bytes())
    summary = json.loads((dirs[0] / "summary.json").read_text())
    assert summary["mode"] == "bandit"
    assert summary["runs"]["0"]["status"] == "recorded"
    with open(dirs[0] / "stoch_seed0.csv", newline="") as fh:
        header = next(csv.reader(fh))
    assert header[-3:] == ["action_own", "action_opp", "payoff"]


def test_bifurcation_cli(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bifurcation", "--preset", "rps",
                           "--param", "l=8", "--eps-range", "0.5,3.0",
                           "--tol", "1e-4", "--out", str(tmp_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["bifurcation"]["status"] == "found"
    assert doc["bifurcation"]["eps_star"] == pytest.approx(7.0 / 6.0, abs=2e-3)
    assert (tmp_path / "bifurcation.json").exists()


def test_bifurcation_usage_errors(capsys):
    base = ("bifurcation", "--preset", "rps", "--param", "l=8")
    for extra in (("--eps-range", "1"), ("--eps-range", "lo,hi"),
                  ("--scheme", "discrete")):
        code, _, err = run_cli(capsys, *base, *extra)
        assert code == 2
        assert "error:" in err


def test_game_file_with_wrong_linear_map_rejected(tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(json.dumps({"players": 2, "action_counts": [2, 2],
                                "payoffs": [[3, 0, 0, 1], [3, 0, 0, 1]],
                                "linear_map": [0.0] * 16}))
    for argv in (("solve",), ("simulate", "--out", str(tmp_path))):
        code, out, err = run_cli(capsys, *argv, "--game", str(path))
        assert code == 2
        assert out == ""
        assert "linear map disagrees with the payoff tensors" in err
    assert not (tmp_path / "summary.json").exists()


_BIMATRIX = {"players": 2, "action_counts": [2, 2],
             "payoffs": [[1, -1, -1, 1], [-1, 1, 1, -1]]}


@pytest.mark.parametrize("doc,message", [
    ({**_BIMATRIX, "payoffs": [["a", -1, -1, 1], [-1, 1, 1, -1]]},
     "payoff array must hold numbers"),
    ({**_BIMATRIX, "linear_map": ["x"] * 16}, "linear_map must hold numbers"),
    ({**_BIMATRIX, "payoffs": 5}, "payoffs must hold one flat array per player"),
    ({**_BIMATRIX, "players": 2.5}, "players must be a whole number, got 2.5"),
    ({**_BIMATRIX, "action_counts": [2.7, 2]},
     "action_counts entry must be a whole number, got 2.7"),
    ({"players": 1, "action_counts": [2], "payoffs": [[1, -1, -1, 1]], "matching": "false"},
     "matching must be true or false, got 'false'"),
    ({"players": True, "action_counts": [2], "payoffs": [[1, -1]]},
     "players must be a whole number, got True"),
    ({**_BIMATRIX, "action_counts": [True, 2]},
     "action_counts entry must be a whole number, got True"),
    ({**_BIMATRIX, "payoffs": [[1, -1, -1], [-1, 1, 1, -1]]},
     "payoff array has 3 entries, expected 4"),
    ({"players": 2, "action_counts": [2, 2]}, "malformed game document: 'payoffs'"),
    ({**_BIMATRIX, "players": 3}, "players and action_counts disagree"),
    ("{not json", "game file is not valid JSON"),
], ids=["payoff-entry", "linear-map-entry", "payoffs-not-a-list",
        "fractional-players", "fractional-action-count", "string-matching",
        "boolean-players", "boolean-action-count", "payoff-array-size",
        "missing-payoffs", "players-disagree", "not-json"])
def test_malformed_game_file_is_a_usage_error(doc, message, tmp_path, capsys):
    """A game file the loader cannot read as a game exits 2 with one error
    line; fractional counts are refused, not truncated, and a flag or count
    of another JSON type is refused, not converted by Python's bool or int
    ("false" was a matching game, true one player)."""
    path = tmp_path / "game.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run_cli(capsys, "classify", "--game", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_game_file_that_is_a_directory_is_a_usage_error(tmp_path, capsys):
    code, out, err = run_cli(capsys, "classify", "--game", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot read game file {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("source", ["--out", "GAMEDYN_OUT"])
def test_output_directory_that_is_a_file_is_a_usage_error(source, tmp_path,
                                                          monkeypatch, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    argv = ["classify", "--preset", "rps", "--param", "l=1"]
    if source == "--out":
        argv += ["--out", str(taken)]
    else:
        monkeypatch.setenv("GAMEDYN_OUT", str(taken))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot use output directory {taken}: File exists\n"
    assert taken.read_text() == "not a directory"


_SHORT_SIMULATE = ["simulate", "--preset", "rps", "--param", "l=5", "--t-end", "1"]
OUTPUT_FILES = {
    "simulate-summary": (_SHORT_SIMULATE, "summary.json"),
    "simulate-csv": (_SHORT_SIMULATE, "traj_seed0.csv"),
    "reproduce": (["reproduce", "4-l1"], "reproduce.json"),
    "classify": (["classify", "--preset", "rps", "--param", "l=5"], "classify.json"),
}


@pytest.mark.parametrize("argv, name", list(OUTPUT_FILES.values()), ids=list(OUTPUT_FILES))
def test_output_file_that_cannot_be_written_is_a_usage_error(argv, name, tmp_path, capsys):
    """An output file that is taken by a directory exits 2 with one error
    line naming it; it was an IsADirectoryError traceback with exit 1, the
    code of failed reproduce checks."""
    (tmp_path / name).mkdir()
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert name in err


def test_step_count_that_overflows_is_a_domain_error(tmp_path, capsys):
    """t_end / dt beyond the largest float is refused, not an OverflowError."""
    code, out, err = run_cli(capsys, "simulate", "--preset", "rps", "--param", "l=1",
                             "--dt", "1e-320", "--t-end", "1e10", "--out", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err == "error: t_end / dt = 10000000000.0 / 1e-320 is not a finite step count\n"
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("option", ["--K", "--a"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_filter_parameter_rejected(option, value, tmp_path, capsys):
    code, _, err = run_cli(capsys, "simulate", "--preset", "rps", "--param", "l=5",
                           "--scheme", "higher-order", option, value,
                           "--t-end", "1", "--out", str(tmp_path))
    assert code == 2
    assert "finite" in err
    code, _, err = run_cli(capsys, "bifurcation", "--preset", "rps", "--param", "l=8",
                           "--scheme", "higher-order", option, value)
    assert code == 2
    assert "finite" in err


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_bifurcation_tolerance_rejected(tol, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the bisection started")

    monkeypatch.setattr("gamedyn.analysis.rest_point", refuse)
    code, out, err = run_cli(capsys, "bifurcation", "--preset", "rps", "--param", "l=8",
                             "--eps-range", "0.5,3", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "bisection tolerance must be positive and finite" in err


def test_reproduce_passing_example(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "reproduce", "4-l1", "--out", str(tmp_path))
    assert code == 0
    assert "1/1 examples passed" in out
    doc = json.loads((tmp_path / "reproduce.json").read_text())
    assert doc["4-l1"]["passed"] is True
    assert doc["4-l1"]["rows"]


def test_reproduce_failing_example(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "2")
    assert code == 1
    assert "failing: 2" in out


def test_reproduce_unknown_id(capsys):
    code, _, err = run_cli(capsys, "reproduce", "bogus")
    assert code == 2
    assert "error:" in err


def test_reproduce_registry():
    from gamedyn.reproduce import EXAMPLE_IDS

    assert len(EXAMPLE_IDS) == len(set(EXAMPLE_IDS)) == 19
    for example_id in ("1-l1", "1-l8", "2", "3", "4-l5-eps0.5", "5-eps0.1",
                       "7", "8-Abar-eps0.1", "9"):
        assert example_id in EXAMPLE_IDS
