"""Committed mutants: deliberately wrong programs, each of which an acceptance criterion rejects.

Each test sets one mutant on a module with ``monkeypatch`` and runs only the criterion that
must reject it, from ``criteria.py``, on that criterion's own cases unless it says otherwise.
"""

import math

import numpy as np

import criteria
from egain import classical, fock


def test_a_quarter_of_the_slack_fails_criterion_11(monkeypatch):
    # the flat-input ladder's least slack/shortfall ratio is 3.42, so a quarter of the slack
    # lets a record below the bound read as reliable
    slack = fock.slack_from_deficit
    monkeypatch.setattr(fock, "slack_from_deficit", lambda *args: 0.25 * slack(*args))
    ok, detail = criteria.finite_truncations_have_no_positive_gain(criteria.TRUNCATION_CASES)
    assert not ok, detail


def test_the_slack_without_its_truncation_term_fails_criterion_11(monkeypatch):
    # only the rounding term r = 2 (T log(d - 1) + h(T)), T = 8 d^2 u, is left
    def rounding_only(deficit, energy, dim):
        T = 8.0 * dim * dim * fock._ROUNDOFF
        return 2.0 * (T * math.log(dim - 1) + fock._h(T))

    monkeypatch.setattr(fock, "slack_from_deficit", rounding_only)
    ok, detail = criteria.finite_truncations_have_no_positive_gain(criteria.TRUNCATION_CASES)
    assert not ok, detail


def test_a_swapped_pair_in_the_xor_family_fails_criterion_8(monkeypatch):
    # n_3(1) = 3 and n_3(2) = 4 trade places: column 3 stays a permutation, but rows 1 and 2 of
    # the 4 x 4 prefix no longer are (row 1 reads 1, 2, 4, 4)
    family = classical.xor_family()

    def swapped(i, j):
        n = family(i, j)
        i, j = np.broadcast_arrays(i, j)
        n[(i == 1) & (j == 3)], n[(i == 2) & (j == 3)] = 4, 3
        return n

    monkeypatch.setattr(classical, "xor_family", lambda: swapped)
    ok, detail = criteria.classical_counterexample(criteria.CLASSICAL_EXPONENTS)
    assert not ok, detail


def test_an_amplifier_built_for_1_05_k_fails_criterion_12(monkeypatch):
    # the noiseless amplifier 1.5 gets the Kraus table of 1.575 and keeps k = 1.5, so every gain
    # rises by about 2 log 1.05 = 0.098 > DELTA: a wrong program that no lower bound can see
    amplitudes = fock._amplitudes
    monkeypatch.setattr(fock, "_amplitudes", lambda k, dim: amplitudes(1.05 * k, dim))
    case = [("amplifier", 1.5, 0.0)]
    assert case[0] in criteria.THERMAL_CASES  # a case that criterion 12 passes unmutated
    ok, detail = criteria.fock_route_brackets_from_above(case)
    assert not ok, detail
    # its rungs' slacks, 0.013 and 0.42, pass SLACK_CAP, so the criterion counts none of them; the
    # nu = 10 rung's gap alone, 0.127 against 0.028 unmutated, is past DELTA all the same
    channel = fock.build_dilation("amplifier", 1.5, dim=criteria.THERMAL_DIM)
    record = fock.verify_lower_bound(channel, fock.thermal_state(10.0, criteria.THERMAL_DIM))
    assert record["gain"] - 2.0 * math.log(1.5) > criteria.DELTA
