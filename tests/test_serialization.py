"""Model JSON schema and behavior CSV round trips."""

from __future__ import annotations

import json

import pytest

from quasibell import (
    assemble_behavior,
    behavior_from_csv,
    behavior_to_csv,
    chsh_saturating_model,
    chsh_score,
    check_quasi_bell,
    model_from_json_dict,
    model_to_json_dict,
    witness_chsh,
)
from quasibell.serialization import ModelFormatError

from conftest import random_model


class TestModelJson:
    def test_round_trip_is_bit_identical(self, rng):
        for _ in range(25):
            model = random_model(rng, n_settings=3)
            document = model_to_json_dict(model)
            # through an actual JSON string, as the CLI would
            restored = model_from_json_dict(json.loads(json.dumps(document)))
            assert witness_chsh(restored).selected == witness_chsh(model).selected
            assert witness_chsh(restored).branch_discriminant == witness_chsh(model).branch_discriminant
            original = check_quasi_bell(model, 3)
            again = check_quasi_bell(restored, 3)
            assert again.score == original.score
            assert again.bound == original.bound
            assert again.margin == original.margin

    def test_joint_support_round_trip(self, rng):
        from conftest import random_joint_model

        model = random_joint_model(rng, n_settings=2)
        restored = model_from_json_dict(json.loads(json.dumps(model_to_json_dict(model))))
        assert restored.dist.support == model.dist.support
        assert witness_chsh(restored).selected == witness_chsh(model).selected

    def test_schema_shape(self):
        document = model_to_json_dict(chsh_saturating_model(1))
        assert set(document) == {"parties", "dist"}
        assert len(document["parties"]) == 2
        party = document["parties"][0]
        assert set(party) == {"settings", "lambdas", "table"}
        assert party["settings"] == 2
        assert party["lambdas"] == ["1", "2", "3", "4"]
        assert party["table"]["0,1"] == [1.0, 0.0]
        assert document["dist"]["4,4"] == -0.25

    def test_rejects_unknown_fields(self):
        document = model_to_json_dict(chsh_saturating_model(1))
        document["extra"] = 1
        with pytest.raises(ModelFormatError):
            model_from_json_dict(document)

    def test_rejects_wrong_party_count(self):
        document = model_to_json_dict(chsh_saturating_model(1))
        document["parties"] = document["parties"][:1]
        with pytest.raises(ModelFormatError):
            model_from_json_dict(document)

    def test_rejects_bad_dist_key(self):
        document = model_to_json_dict(chsh_saturating_model(1))
        document["dist"] = {"nokey": 1.0}
        with pytest.raises(ModelFormatError):
            model_from_json_dict(document)

    def test_rejects_settings_not_matching_table(self):
        document = model_to_json_dict(chsh_saturating_model(1))
        document["parties"][1]["settings"] = 3
        with pytest.raises(ModelFormatError, match="settings"):
            model_from_json_dict(document)

    def test_rejects_comma_in_label(self):
        model = random_model_with_label_comma()
        with pytest.raises(ModelFormatError):
            model_to_json_dict(model)


def random_model_with_label_comma():
    from quasibell import LocalResponse, Model, QuasiDist

    label = "a,b"
    table = {(x, label): (0.5, 0.5) for x in range(2)}
    return Model(
        LocalResponse("A", 2, (label,), table),
        LocalResponse("B", 2, (label,), dict(table)),
        QuasiDist.diagonal({label: 1.0}),
    )


class TestBehaviorCsv:
    def test_header_and_round_trip(self):
        behavior = assemble_behavior(chsh_saturating_model(1))
        text = behavior_to_csv(behavior)
        assert text.splitlines()[0] == "xA,xB,P--,P-+,P+-,P++"
        restored = behavior_from_csv(text)
        assert restored.n_settings_A == 2
        for pair in behavior.setting_pairs():
            assert restored.table[pair] == tuple(float(v) for v in behavior.table[pair])
        assert chsh_score(restored) == chsh_score(behavior)

    def test_rejects_missing_header(self):
        with pytest.raises(ModelFormatError):
            behavior_from_csv("a,b,c\n0,0,1,0,0,0\n")

    def test_rejects_short_rows(self):
        text = "xA,xB,P--,P-+,P+-,P++\n0,0,1.0\n"
        with pytest.raises(ModelFormatError):
            behavior_from_csv(text)

    def test_rejects_non_numeric(self):
        text = "xA,xB,P--,P-+,P+-,P++\n0,0,a,b,c,d\n"
        with pytest.raises(ModelFormatError):
            behavior_from_csv(text)
