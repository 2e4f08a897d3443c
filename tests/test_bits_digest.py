"""Tests for the bits digest on its small battery: it is repeatable, and a
one-ulp change to one fit shows in that fit's group only."""

import importlib.util
from pathlib import Path

import numpy as np

from wmle import mwle

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bits_digest.py"
_SPEC = importlib.util.spec_from_file_location("bits_digest", _PATH)
bits_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bits_digest)


def test_two_runs_give_the_same_digests():
    first = bits_digest.digests("small")
    assert set(first) == set(bits_digest.GROUPS)
    assert bits_digest.digests("small") == first


def test_one_ulp_in_one_fit_changes_only_its_groups_digest(monkeypatch):
    want = bits_digest.digests("small")
    fit, calls = mwle.fit, []

    def nudged(model, observations, policy, **kwargs):
        result = fit(model, observations, policy, **kwargs)
        calls.append(np.shape(observations))
        if len(calls) == 3:  # the third fit-large-n fit: its first estimate, one ulp up
            theta = result.theta_hat.copy()
            theta[0] = np.nextafter(theta[0], np.inf)
            result = result._replace(theta_hat=theta)
        return result

    monkeypatch.setattr(mwle, "fit", nudged)
    got = bits_digest.digests("small")
    assert calls[2] == (bits_digest.SCALES["small"]["large_n"], 3)
    assert {name for name in want if got[name] != want[name]} == {"fit-large-n"}
