from collections import defaultdict
from types import SimpleNamespace

import numpy as np
import pytest

from gamedyn import dynamics, reproduce


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def catalogue(tmp_path_factory):
    """Every scenario of the catalogue planned, run and checked once, in
    process, into a fresh out_dir: its plans, batches and reports by id.
    log[id] lists the work done on that scenario's game: its "integrate"
    calls (RK4 loops), the "rows" it integrated, keyed by what determines
    each result, its rest-point "solves", keyed by (game, eps), and its
    "classify" calls.  Work on no scenario's game is logged under None."""
    events, batch_game = [], [None]  # events: (kind, game, key)
    simulate_batch, integrate, solve, classify = (reproduce.simulate_batch, dynamics.integrate,
                                                  reproduce.rest_point, reproduce.classify)

    def logged_batch(game, runs, **kwargs):
        events.extend(("rows", game, (game.name, run.params, run.block is None, kwargs["dt"],
                                      run.t_end, row.tobytes()))
                      for run in runs for row in run.z0)
        batch_game[0] = game
        trajs = simulate_batch(game, runs, **kwargs)
        batch_game[0] = None
        return trajs

    def counted_integrate(*args, **kwargs):
        events.append(("integrate", batch_game[0], None))
        return integrate(*args, **kwargs)

    def rest_point(game, eps, *args, **kwargs):
        events.append(("solves", game, (game.name, eps)))
        return solve(game, eps, *args, **kwargs)

    def counted_classify(game, *args, **kwargs):
        events.append(("classify", game, None))
        return classify(game, *args, **kwargs)

    out_dir = tmp_path_factory.mktemp("catalogue")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reproduce, "simulate_batch", logged_batch)
        mp.setattr(dynamics, "integrate", counted_integrate)
        mp.setattr(reproduce, "rest_point", rest_point)
        mp.setattr(reproduce, "classify", counted_classify)
        plans = reproduce.plan(reproduce.EXAMPLE_IDS)
        batches = reproduce.run(plans)
        reports = reproduce.check(plans, batches, str(out_dir))
    owner = {id(game): example_id for example_id, _, game, *_ in plans}
    log = defaultdict(lambda: defaultdict(list))
    for kind, game, key in events:
        log[owner.get(id(game))][kind].append(key)
    ids = reproduce.EXAMPLE_IDS
    return SimpleNamespace(plans=dict(zip(ids, plans)), batches=dict(zip(ids, batches)),
                           reports=dict(zip(ids, reports)), out_dir=out_dir, log=log)
