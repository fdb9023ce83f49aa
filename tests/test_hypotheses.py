"""Exponent bookkeeping: ranges, derived windows, H1(a)/H2 verdicts.

The heavy cross-check against the exact rational oracle lives in the
acceptance suite; here we pin hand-workable values and the JSON round trip.
"""

import json
import math

import pytest

from _oracles import exact_admissible, lattice_configs
from plapbench.cli import canonical_json
from plapbench.hypotheses import (
    INF,
    Interval,
    admissibility_report,
    check_H1a,
    check_H2,
    config_from_dict,
    derive,
    sobolev_conjugate,
)


GOOD = {
    "N": 3, "p": 2.5, "q": 2.0,
    "alpha1": -0.5, "beta1": 0.3, "gamma1": 0.4, "delta1": 0.3,
    "m1": 1.0, "mhat1": 1.0,
    "alpha2": 0.3, "beta2": -0.5, "gamma2": 0.3, "delta2": 0.4,
    "m2": 1.0, "mhat2": 1.0,
    "zeta1": "inf", "zeta2": "inf",
}


def test_sobolev_conjugate_values():
    assert math.isclose(sobolev_conjugate(2.0, 3), 6.0)
    assert math.isclose(sobolev_conjugate(2.5, 3), 15.0)
    assert sobolev_conjugate(2.0, 2) == INF
    assert sobolev_conjugate(3.0, 2) == INF
    with pytest.raises(ValueError):
        sobolev_conjugate(1.0, 2)


def test_interval_basics():
    w = Interval(2.0, 4.0)
    assert not w.is_empty
    assert w.midpoint() == 3.0
    assert Interval(4.0, 2.0).is_empty
    assert Interval(2.0, 2.0).is_empty
    half_line = Interval(2.0, INF)
    assert not half_line.is_empty
    assert half_line.midpoint() == 4.0  # finite representative of (2, inf)


def test_derive_hand_computed():
    c = config_from_dict(GOOD)
    d = derive(c)
    assert math.isclose(d.pstar, 15.0)
    assert math.isclose(d.qstar, 6.0)
    assert math.isclose(d.pprime, 2.5 / 1.5)
    assert math.isclose(d.qprime, 2.0)
    # theta1 = max(0.3/6, 0.4/2.5, 0.3/2) = 0.16
    assert math.isclose(d.theta1, 0.16)
    # theta2 = max(0.3/15, 0.3/2.5, 0.4/2) = 0.2
    assert math.isclose(d.theta2, 0.2)
    assert d.eta1 == 0.3 and d.eta2 == 0.3
    # r window: 1/zeta + theta1 < 1/r' < 1 - p/p* maps to
    # (1/(1 - 0.16), 1/(p/p*)) = (1/0.84, 6)
    assert math.isclose(d.r_window.lo, 1.0 / 0.84)
    assert math.isclose(d.r_window.hi, 15.0 / 2.5)
    assert not d.r_window.is_empty
    assert not d.s_window.is_empty


def test_window_collapses_when_theta_large():
    c = dict(GOOD, gamma1=2.2)  # gamma1/p = 0.88 > 1 - p/p* = 5/6
    rep = admissibility_report(config_from_dict(c))
    assert rep.derived.r_window.is_empty
    assert not rep.h1a.passed
    assert "theta1" in " ".join(rep.h1a.failures)
    assert not rep.admissible


def test_zeta_must_beat_dimension():
    c = dict(GOOD, zeta1=2.5)  # needs zeta1 > N = 3
    rep = admissibility_report(config_from_dict(c))
    assert not rep.h1a.passed
    assert any("zeta1" in f for f in rep.h1a.failures)


def test_h2_coupling_product():
    good = config_from_dict(GOOD)
    assert check_H2(good).passed  # 0.09 < 1.1 * 0.6
    bad = config_from_dict(dict(GOOD, beta1=0.9, alpha2=1.4, gamma1=1.4, delta2=0.95))
    chk = check_H2(bad)
    assert not chk.passed and chk.failures


def test_range_violations_reported_not_raised():
    c = config_from_dict(dict(GOOD, p=3.5, alpha1=0.5, m1=-1.0))
    v = c.range_violations()
    assert "p < N required" in v
    assert "alpha1 in (-1, 0] required" in v
    assert "m1 > 0 required" in v
    rep = admissibility_report(c)
    assert not rep.admissible
    assert rep.h1a is not None  # checks still evaluated for probing


def test_config_dict_roundtrip():
    c = config_from_dict(GOOD)
    d = json.loads(canonical_json(c))
    assert d["zeta1"] == "inf"
    assert config_from_dict(d) == c
    with pytest.raises(ValueError):
        config_from_dict({k: v for k, v in GOOD.items() if k != "p"})
    with pytest.raises(ValueError):
        config_from_dict(dict(GOOD, bogus=1.0))
    with pytest.raises(ValueError):
        config_from_dict(dict(GOOD, zeta1="huge"))
    # exponents are finite JSON numbers: a list, a bool, a numeric string, NaN
    # or an integer beyond the float range is a ValueError, as is a
    # non-integral dimension
    for bad in (dict(GOOD, p=[2.5]), dict(GOOD, p=True), dict(GOOD, q="2.0"), dict(GOOD, zeta1=None), dict(GOOD, N=2.5),
                dict(GOOD, m1=10**400), dict(GOOD, p=math.nan)):
        with pytest.raises(ValueError):
            config_from_dict(bad)
    with pytest.raises(ValueError):
        config_from_dict([GOOD])


def test_report_json_is_serializable():
    rep = admissibility_report(config_from_dict(GOOD))
    back = json.loads(canonical_json(rep))
    assert back["admissible"] is True
    assert back["derived"]["pstar"] == 15.0
    assert back["config"]["zeta1"] == "inf"


def test_checker_matches_exact_oracle_sample():
    # small slice of the acceptance lattice as a fast regression trip wire
    configs = lattice_configs()[::97]
    assert len(configs) > 100
    for c in configs:
        pkg = dict(c)
        pkg["zeta1"] = "inf" if c["zeta1"] is None else c["zeta1"]
        pkg["zeta2"] = "inf" if c["zeta2"] is None else c["zeta2"]
        rep = admissibility_report(config_from_dict(pkg))
        assert rep.admissible == exact_admissible(c), f"verdict mismatch at {c}"
        # H1(a) holds exactly when both windows are open and both zeta exceed N
        windows_open = not rep.derived.r_window.is_empty and not rep.derived.s_window.is_empty
        assert rep.h1a.passed == (windows_open and rep.config.zeta1 > rep.config.N and rep.config.zeta2 > rep.config.N)


def test_h1a_failure_lists_every_broken_inequality():
    c = config_from_dict(dict(GOOD, zeta1=2.5, gamma1=2.2))
    chk = check_H1a(c)
    assert not chk.passed
    assert len(chk.failures) >= 2
