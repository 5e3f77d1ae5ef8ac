"""The bit-identity gate's comparison (tests/reference.py) on synthetic
records: what it counts, and which differences fail the gate."""

import pytest

from reference import compare, records

# (grid key, value, budget, method, m): a direct value, a refusal, a stepwise value.
BASE = [(0, complex(1.0, -2.0), 2.0 ** -40, "Direct26", 40),
        (1, None, None, "PoleError", None),
        (2, complex(0.5, 0.0), 2e-13, "Stepwise3", 3)]
NOTHING = {"value": 0, "budget": 0, "method": 0, "m": 0}


def changed(index: int, **fields) -> list:
    """BASE with the fields of one record replaced."""
    names = ("key", "value", "budget", "method", "m")
    record = dict(zip(names, BASE[index]), **fields)
    return [*BASE[:index], tuple(record[name] for name in names), *BASE[index + 1:]]


def test_same_records_differ_in_nothing():
    assert compare(BASE, list(BASE)) == (NOTHING, 0.0, "")


def test_value_change_within_budget_is_its_share():
    ours = changed(0, value=complex(1.0 + 2.0 ** -42, -2.0), budget=2.0 ** -39)
    counts, share, fatal = compare(ours, BASE)
    assert counts == {**NOTHING, "value": 1, "budget": 1}
    assert share == 0.25  # of the smaller budget, 2^-40
    assert fatal == ""


def test_signed_zero_is_a_value_change():
    counts, share, fatal = compare(changed(2, value=complex(0.5, -0.0)), BASE)
    assert counts == {**NOTHING, "value": 1}
    assert (share, fatal) == (0.0, "")


@pytest.mark.parametrize("ours, reason", [
    (changed(2, method="Stepwise4"), "method differs"),
    (changed(0, m=41), "m differs"),
    (changed(0, value=None, budget=None, method="DomainError", m=None), "method differs"),
    (changed(1, method="DomainError"), "method differs"),
    (changed(1, value=1j, budget=1e-12, method="Direct26", m=40), "method differs"),
    (changed(2, key=3), "grid differs"),
    (BASE[:-1], "grid differs"),
], ids=["method", "m", "refused", "refusal type", "no longer refused", "grid key",
        "grid length"])
def test_changed_method_m_refusal_or_grid_is_fatal(ours, reason):
    assert reason in compare(ours, BASE)[2]


def test_scan_records_are_the_same_in_csv_and_json():
    csv = ("sigma,t,re,im,abs,method,err_bound,m_used\n"
           "1.0,0.0,,,,error,,\n"
           "1.0,0.01,0.5772,-99.99,100.0,Direct26,7.05e-13,9\n")
    json = ('{"sigma": 1.0, "t": 0.0, "re": null, "im": null, "abs": null, '
            '"method": "error", "err_bound": null, "m_used": null}\n'
            '{"sigma": 1.0, "t": 0.01, "re": 0.5772, "im": -99.99, "abs": 100.0, '
            '"method": "Direct26", "err_bound": 7.05e-13, "m_used": 9}\n')
    parsed = records(["scan", "--format", "json"], json)
    assert [r[1:] for r in records(["scan"], csv)] == [r[1:] for r in parsed]
    assert parsed == [((1.0, 0.0), None, None, "error", None),
                      ((1.0, 0.01), complex(0.5772, -99.99), 7.05e-13, "Direct26", 9)]
