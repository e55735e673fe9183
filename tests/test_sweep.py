"""The theorems as properties: each check on a seeded sweep of admissible
configs passes, or refuses with exit 2 for a stated reason; it never exits
1, "theorem check failed", except in the known failure classes, each a
strict xfail that names the open item that mends it.

The configs come from ``random.Random(SWEEP_SEED)`` over ROADMAP item 21's
ranges: kappa in [0, 2], gamma in [0.3, 3], sigma in {0.5, 1, 2} with
either sign, N in {32, 64} with either kind of ends, each profile kind
under a constant, periodic or two-frequency law, and g2 zero or a real
single site below 0.4*gamma, so Gamma = gamma - 2*sup||g2|| > 0: the
certificate admits each one.  ``dimension`` (a statistical pass rule) and
``simulate`` (no verdict) are left out.
"""

import json
import math
import random

import pytest

from dnls import cli

SWEEP_SEED = 2026
SWEEP_COUNT = 20
COMMANDS = ("verify-bounds", "absorbing", "tail", "contraction",
            "continuity", "breather")
# what an admissible config may still be refused for: the gap rate of the
# absorbing ball or of the breather's ball is not positive, or the driving
# has no period for breather to map over
REFUSALS = ("damping too weak for contraction", "uniqueness not guaranteed",
            "no period")
# (command, config index) -> the item whose mend makes it pass.  tail: the
# cutoff M(xi) bounds only the driving's own tail (item 22).  breather
# exits 1 on localization on some configs (item 15), none at this seed.
KNOWN_FAILURES = {("tail", i): 22 for i in (0, 1, 2, 3, 4, 5, 6, 7, 9, 11,
                                            13, 14, 16, 17, 18, 19)}


def _profile(rng: random.Random) -> dict:
    kind = rng.choice(("exponential", "single_site", "custom"))
    amp = rng.uniform(0.1, 1.0)
    if kind == "exponential":
        return {"kind": kind, "amplitude": amp, "rate": rng.uniform(0.5, 2.0)}
    if kind == "single_site":
        return {"kind": kind, "amplitude": amp, "site": rng.randint(-3, 3)}
    return {"kind": kind, "start": rng.randint(-3, 0),
            "values": [rng.uniform(-amp, amp)
                       for _ in range(rng.randint(2, 5))]}


def _law(rng: random.Random) -> dict:
    kind = rng.choice(("constant", "periodic", "harmonic"))
    if kind == "constant":
        return {"kind": kind, "value": rng.uniform(0.5, 1.5)}
    if kind == "periodic":
        return {"kind": kind, "period": rng.uniform(1.0, 8.0),
                "phase": rng.uniform(0.0, 2 * math.pi)}
    w = rng.uniform(0.5, 2.0)
    return {"kind": kind, "frequencies": [w, w * math.sqrt(2.0)],
            "amplitudes": [1.0, rng.uniform(0.2, 1.0)]}


def _config(rng: random.Random) -> dict:
    gamma = rng.uniform(0.3, 3.0)
    driving = {"g1": {"profile": _profile(rng), "law": _law(rng)}}
    if rng.random() < 0.5:
        driving["g2"] = {"profile": {
            "kind": "single_site", "amplitude": rng.uniform(0.0, 0.4 * gamma),
            "site": rng.randint(-2, 2)}}
    return {
        "version": 1,
        "model": {"kappa": rng.uniform(0.0, 2.0), "gamma": gamma,
                  "nonlinearity": {"sigma": rng.choice((0.5, 1.0, 2.0)),
                                   "sign": rng.choice((-1, 1))}},
        "lattice": {"n_sites": rng.choice((32, 64)),
                    "bc": rng.choice(("dirichlet", "periodic"))},
        "driving": driving,
        "integrator": {"rtol": 1e-8, "atol": 1e-11, "sample_stride": 0.1},
        "scenario": {
            "t1": 10.0,
            "initial": {"kind": "random", "seed": rng.randrange(1000),
                        "norm": rng.uniform(0.5, 3.0)},
            "radius": rng.uniform(0.5, 3.0), "seed": rng.randrange(1000),
            "driving_shift": rng.uniform(-2.0, 2.0)}}


def _configs() -> list:
    rng = random.Random(SWEEP_SEED)
    return [_config(rng) for _ in range(SWEEP_COUNT)]


CONFIGS = _configs()


class CheckFailed(AssertionError):
    """A check exited 1, "theorem check failed": the one failure a known
    class may show, so an xfail does not hide a traceback or an exit 3."""


def _cases():
    for i in range(SWEEP_COUNT):
        for command in COMMANDS:
            item = KNOWN_FAILURES.get((command, i))
            marks = () if item is None else pytest.mark.xfail(
                raises=CheckFailed, strict=True,
                reason=f"exits 1: ROADMAP item {item}")
            yield pytest.param(i, command, marks=marks,
                               id=f"c{i:02d}-{command}")


@pytest.mark.parametrize("index, command", _cases())
def test_check_passes_or_refuses(tmp_path, capsys, index, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS[index]))
    code = cli.main([command, "--config", str(path)])
    out, err = capsys.readouterr()
    if code == cli.EXIT_CHECK_FAILED:
        raise CheckFailed(out)
    assert code in (cli.EXIT_PASS, cli.EXIT_CONFIG), (code, err)
    if code == cli.EXIT_CONFIG:
        assert err.startswith("config error: ")
        assert any(reason in err for reason in REFUSALS), err
