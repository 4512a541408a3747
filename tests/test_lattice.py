"""Lattice-point counting oracle and the rectangle-argument verifier.

Counts are cross-checked by an independent dense enumeration (meshgrid of
all candidate pairs), so the row-wise integer-sqrt counter is never its
own referee.  Closed-form anchors: N(0)=1, N(1)=5, N(2)=13, N(5)=81,
E(1) = 5 - pi.
"""

import math

import numpy as np
import pytest

from wavefront import (
    NumericalFailureError,
    PreconditionError,
    Torus,
    annulus_count,
    error_term,
    gauss_count,
    init_front,
    lattice_count,
    propagate,
    theorem1_rectangle_check,
    wavefront_return_oracle,
)


def _brute_count(t: float) -> int:
    m = np.arange(-int(t) - 1, int(t) + 2)
    grid = m[:, None] ** 2 + m[None, :] ** 2
    return int((grid <= t * t).sum())


def test_gauss_count_anchors():
    assert gauss_count(0) == 1
    assert gauss_count(1) == 5
    assert gauss_count(2) == 13
    assert gauss_count(5) == 81
    assert gauss_count(0.5) == 1
    assert gauss_count(math.sqrt(2)) == 9


def test_gauss_count_against_dense_enumeration():
    for t in list(range(0, 61)) + [2.5, 7.07, 10.0001, 33.3]:
        assert gauss_count(float(t)) == _brute_count(float(t)), t


def test_gauss_count_monotone():
    prev = 0
    for t in np.linspace(0.1, 30, 97):
        n = gauss_count(float(t))
        assert n >= prev
        prev = n


def test_gauss_count_rejects_negative_and_huge():
    with pytest.raises(PreconditionError):
        gauss_count(-1.0)
    with pytest.raises(PreconditionError, match="t=nan"):
        gauss_count(math.nan)
    with pytest.raises(NumericalFailureError):
        gauss_count(2.0e4)  # beyond the enumeration budget


def test_annulus_count_examples():
    count, expected = annulus_count(10.0, 0.1)
    assert expected == pytest.approx(2 * math.pi, abs=1e-12)
    assert count == gauss_count(10.1) - gauss_count(10.0)
    assert annulus_count(1.0, 0.0)[0] == 0  # no lattice point at radius 1+
    with pytest.raises(PreconditionError):
        annulus_count(1.0, -0.1)


def test_error_term_anchors():
    assert error_term(1.0) == pytest.approx(5 - math.pi, abs=1e-12)
    assert error_term(0.5) == pytest.approx(1 - math.pi / 4, abs=1e-15)
    with pytest.raises(PreconditionError, match="t=nan"):
        error_term(math.nan)


def test_error_term_envelope():
    # |E(t)| <= sqrt(2)*2*pi*t on the tested range
    for t in range(1, 201):
        e = error_term(float(t))
        assert abs(e) <= math.sqrt(2) * 2 * math.pi * t


def test_lattice_count_record():
    rec = lattice_count(25.0, 0.2)
    assert rec.t == 25.0 and rec.h == 0.2
    assert rec.N_t == gauss_count(25.0)
    assert rec.annulus_count == gauss_count(25.2) - gauss_count(25.0)
    assert rec.E_t == pytest.approx(rec.N_t - math.pi * 625.0, abs=1e-9)


# --- rectangle argument -------------------------------------------------------


def test_rectangle_check_passes_at_reference_times():
    for t in (10.0, 100.0, 36.0 / 5.0 + 1e-6):
        rep = theorem1_rectangle_check(t)
        assert rep.passed, t
        assert rep.slope_max <= 3.0 / math.sqrt(t)
        assert abs(rep.height - 1.0) <= 3.0 / math.sqrt(t)
        assert rep.projected_covering_radius <= 3.0 / math.sqrt(t)


def test_rectangle_check_frozen_values_at_t100():
    rep = theorem1_rectangle_check(100.0)
    assert rep.a == pytest.approx(-20.0, abs=1e-12)
    assert rep.b == pytest.approx(-math.sqrt(200.0), abs=1e-12)
    assert rep.height == pytest.approx(1.01536, abs=5e-5)
    assert rep.slope_max == pytest.approx(2.0 / math.sqrt(96.0), abs=1e-15)


def test_rectangle_check_rejects_small_t():
    # the slope bound 2/sqrt(t-4) <= 3/sqrt(t) first holds at t = 36/5;
    # below that the argument does not apply and the check refuses to run
    with pytest.raises(PreconditionError):
        theorem1_rectangle_check(5.0)
    with pytest.raises(PreconditionError):
        theorem1_rectangle_check(36.0 / 5.0)
    # non-finite input is named, not left to a ValueError or OverflowError
    with pytest.raises(PreconditionError, match="h_max=nan"):
        theorem1_rectangle_check(100.0, h_max=math.nan)
    with pytest.raises(PreconditionError, match="t=inf"):
        theorem1_rectangle_check(math.inf)


# --- return oracle ------------------------------------------------------------


def test_return_oracle_exact_hits():
    # integer and sqrt-integer radii are lattice distances: the front
    # passes through the source exactly
    assert wavefront_return_oracle(5.0, 0.1) == 0.0
    assert wavefront_return_oracle(math.sqrt(2.0), 0.1) == 0.0
    # at t=0.5 the nearest lattice point (the origin) is half a unit away
    assert wavefront_return_oracle(0.5, 0.1) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(PreconditionError):
        wavefront_return_oracle(1.0, 0.0)
    for t in (math.inf, math.nan):
        with pytest.raises(PreconditionError, match=f"t={t!r}"):
            wavefront_return_oracle(t, 1.0)
    with pytest.raises(NumericalFailureError, match="budget"):
        wavefront_return_oracle(1e12, 1.0)


def test_return_oracle_matches_simulator():
    tor = Torus(1.0, 1.0)
    rng = np.random.default_rng(3)
    for t in rng.uniform(1.0, 60.0, size=6):
        predicted = wavefront_return_oracle(float(t), 1.0 / math.sqrt(t))
        f = propagate(init_front(tor, (0.0, 0.0)), float(t))
        imgs = tor.images(f.pos[f.alive])
        measured = float(np.hypot(imgs[..., 0], imgs[..., 1]).min())
        assert abs(measured - predicted) <= f.params.h_max
