"""Model JSON schema and behavior CSV round trips."""

from __future__ import annotations

import json

import pytest

from quasibell import (
    assemble_behavior,
    behavior_from_csv,
    behavior_to_csv,
    chained_score,
    chsh_saturating_model,
    check_quasi_bell,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    witness_chained_link,
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
            link = witness_chained_link(model, 1)
            restored_link = witness_chained_link(restored, 1)
            assert restored_link.selected == link.selected
            assert restored_link.branch_discriminant == link.branch_discriminant
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
        assert witness_chained_link(restored, 1).selected == witness_chained_link(model, 1).selected

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

    @pytest.mark.parametrize("section", ["table", "dist"])
    @pytest.mark.parametrize("copy_first", [True, False], ids=["copy-first", "copy-last"])
    def test_rejects_duplicate_keys_in_either_order(self, tmp_path, section, copy_first):
        # The row count stays right, so only the repeated key tells them apart.
        document = model_to_json_dict(chsh_saturating_model(1))
        obj = document["dist"] if section == "dist" else document["parties"][1]["table"]
        pairs = list(obj.items())
        key = pairs[0][0]
        copy = [0.5, 0.5] if section == "table" else 0.0
        pairs.insert(0 if copy_first else len(pairs), (key, copy))
        obj.clear()
        obj["@"] = None
        members = ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs)
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(document).replace('{"@": null}', "{" + members + "}"))
        with pytest.raises(ModelFormatError, match=f"duplicate key '{key}'"):
            load_model(path)

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
        assert chained_score(restored, 2) == chained_score(behavior, 2)

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

    @pytest.mark.parametrize("copy_first", [True, False], ids=["copy-first", "copy-last"])
    def test_rejects_duplicate_rows_in_either_order(self, copy_first):
        lines = behavior_to_csv(assemble_behavior(chsh_saturating_model(1))).splitlines()
        lines.insert(1 if copy_first else len(lines), "0,1,0.25,0.25,0.25,0.25")
        # Line 1 is the header; the second 0,1 row is line 4 or line 6.
        line = 4 if copy_first else 6
        with pytest.raises(ModelFormatError, match=f"line {line}: settings 0,1 given twice"):
            behavior_from_csv("\n".join(lines) + "\n")
