"""Serialized plan and stream formats stay byte-compatible.

The score-plane backend used to be a plan/stream setting.  It is now chosen
from each mapping call's window width, but plans, spools, stream plans and
snapshots written while it was a setting must keep their fingerprints and
load.  The fingerprints below were computed before the setting was removed.
"""

import os

import pytest

from repro.api import ExperimentPlan
from repro.api.plan import PlanError
from repro.stream import StreamSpec
from repro.stream.plan import StreamPlan

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples")

PLAN_FINGERPRINTS = {
    "plan_minimal.toml": "1d3e0d1bce51bce5",
    "plan_churn.toml": "01332cb0e150da37",
    "plan_locality.toml": "70da31f84eab05f5",
}


@pytest.mark.parametrize("name,fingerprint", sorted(PLAN_FINGERPRINTS.items()))
def test_example_plan_fingerprints_unchanged(name, fingerprint):
    pytest.importorskip("tomllib")
    plan = ExperimentPlan.from_file(os.path.join(EXAMPLES, name))
    assert plan.fingerprint() == fingerprint


def test_default_stream_plan_fingerprint_unchanged():
    assert StreamPlan().fingerprint() == "0ca22399f2b86b8e"


def test_scoring_entry_is_written_as_a_fixed_value():
    assert ExperimentPlan().to_dict()["execution"]["scoring"] == "vector"
    payload = StreamSpec().to_dict()
    assert payload["scoring"] == "vector"
    # Same key position as when the field existed (snapshots keep order).
    keys = list(payload)
    assert keys[keys.index("incremental") + 1] == "scoring"


def test_plan_payload_accepts_vector_and_rejects_other_backends():
    payload = ExperimentPlan().to_dict()
    assert ExperimentPlan.from_dict(payload) == ExperimentPlan()
    payload["execution"]["scoring"] = "loop"
    with pytest.raises(PlanError, match="chosen from the window width"):
        ExperimentPlan.from_dict(payload)


def test_stream_spec_payload_accepts_vector_and_rejects_other_backends():
    payload = StreamSpec().to_dict()
    assert StreamSpec.from_dict(payload) == StreamSpec()
    payload["scoring"] = "loop"
    with pytest.raises(ValueError, match="chosen from the window width"):
        StreamSpec.from_dict(payload)
