"""JSON model files and CSV behavior tables.

Model schema::

    {"parties": [{"settings": 2, "lambdas": ["1", "2"],
                  "table": {"0,1": [p_minus, p_plus], ...}},
                 {...}],
     "dist": {"lamA,lamB": weight, ...}}

parties[0] is Alice, parties[1] is Bob.  Hidden-value labels are written with
str() and read back as strings, so labels may not contain commas.  A file is
read only in the form it is written: `lambdas` must be an array of strings,
and a table key's setting must be written as str() writes it.  Behavior
CSV uses the fixed header ``xA,xB,P--,P-+,P+-,P++`` with one row per setting
pair in lexicographic order.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .core import DEFAULT_TOLERANCE, Behavior, LocalResponse, Model, QuasiDist

CSV_HEADER = ["xA", "xB", "P--", "P-+", "P+-", "P++"]


class ModelFormatError(ValueError):
    """The JSON document does not match the model schema."""


def _label_str(label) -> str:
    text = str(label)
    if "," in text:
        raise ModelFormatError(f"hidden-value label {label!r} may not contain a comma")
    return text


def _party_to_dict(response: LocalResponse) -> dict:
    labels = [_label_str(lam) for lam in response.hidden_values]
    table = {}
    for x in range(response.n_settings):
        for lam, text in zip(response.hidden_values, labels):
            row = response.table[(x, lam)]
            table[f"{x},{text}"] = [float(row[0]), float(row[1])]
    return {"settings": response.n_settings, "lambdas": labels, "table": table}


def model_to_json_dict(model: Model) -> dict:
    dist = {}
    for (lam_a, lam_b) in model.dist.support:
        key = f"{_label_str(lam_a)},{_label_str(lam_b)}"
        dist[key] = float(model.dist.weights[(lam_a, lam_b)])
    return {
        "parties": [_party_to_dict(model.response_A), _party_to_dict(model.response_B)],
        "dist": dist,
    }


def _is_number(value) -> bool:
    """A JSON number; null, strings and booleans are not."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _party_from_dict(entry: dict, party: str) -> LocalResponse:
    if not isinstance(entry, dict):
        raise ModelFormatError(f"party {party}: expected an object")
    unknown = set(entry) - {"settings", "lambdas", "table"}
    if unknown:
        raise ModelFormatError(f"party {party}: unknown fields {sorted(unknown)}")
    try:
        settings = entry["settings"]
        lambdas = entry["lambdas"]
        raw_table = entry["table"]
    except KeyError as exc:
        raise ModelFormatError(f"party {party}: missing or malformed field ({exc})") from exc
    if not isinstance(settings, int) or isinstance(settings, bool):
        raise ModelFormatError(f"party {party}: 'settings' must be an integer, got {settings!r}")
    # A string or an object would iterate as characters or keys.
    if not (isinstance(lambdas, list) and all(isinstance(lam, str) for lam in lambdas)):
        raise ModelFormatError(f"party {party}: 'lambdas' must be an array of strings")
    lambdas = tuple(lambdas)
    if not isinstance(raw_table, dict):
        raise ModelFormatError(f"party {party}: 'table' must be an object")
    # Checked before LocalResponse enumerates settings x lambdas, so a huge
    # 'settings' value is refused without building its key set.
    if len(raw_table) != settings * len(lambdas):
        raise ModelFormatError(
            f"party {party}: table has {len(raw_table)} rows, expected "
            f"settings x lambdas = {settings} x {len(lambdas)}"
        )
    table = {}
    for key, row in raw_table.items():
        x_text, _, lam = key.partition(",")
        # The setting is written with str(); int() alone would also take
        # "00", "0 ", "+0" and "0_0".
        try:
            x = int(x_text)
            if str(x) != x_text:
                raise ValueError(f"setting {x_text!r} is not written as {str(x)!r}")
        except ValueError as exc:
            raise ModelFormatError(f"party {party}: bad table key {key!r}") from exc
        if not (isinstance(row, list) and len(row) == 2
                and _is_number(row[0]) and _is_number(row[1])):
            raise ModelFormatError(
                f"party {party}: table row {key!r} must be 2 numbers, got {row!r}"
            )
        table[(x, lam)] = (float(row[0]), float(row[1]))
    return LocalResponse(party=party, n_settings=settings, hidden_values=lambdas, table=table)


def model_from_json_dict(document: dict) -> Model:
    if not isinstance(document, dict):
        raise ModelFormatError("model document must be a JSON object")
    unknown = set(document) - {"parties", "dist"}
    if unknown:
        raise ModelFormatError(f"unknown top-level fields {sorted(unknown)}")
    parties = document.get("parties")
    if not isinstance(parties, list) or len(parties) != 2:
        raise ModelFormatError("'parties' must list exactly the two parties")
    response_a = _party_from_dict(parties[0], "A")
    response_b = _party_from_dict(parties[1], "B")
    raw_dist = document.get("dist")
    if not isinstance(raw_dist, dict) or not raw_dist:
        raise ModelFormatError("'dist' must be a non-empty object")
    weights = {}
    for key, value in raw_dist.items():
        lam_a, sep, lam_b = key.partition(",")
        if not sep:
            raise ModelFormatError(f"dist key {key!r} must be 'lamA,lamB'")
        if not _is_number(value):
            raise ModelFormatError(f"dist entry {key!r} must be a number, got {value!r}")
        weights[(lam_a, lam_b)] = float(value)
    dist = QuasiDist(support=tuple(weights), weights=weights)
    return Model(response_A=response_a, response_B=response_b, dist=dist)


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_json_dict(model), indent=2) + "\n")


def _unique_keys(pairs: list) -> dict:
    """`object_pairs_hook` that refuses a key repeated within one JSON object."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ModelFormatError(f"duplicate key {key!r} in a model JSON object")
        obj[key] = value
    return obj


def load_model(path: str | Path) -> Model:
    """Read a model file; a key repeated within any JSON object is refused."""
    document = json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    return model_from_json_dict(document)


def behavior_to_csv(behavior: Behavior) -> str:
    """Render the behavior with header xA,xB,P--,P-+,P+-,P++."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for (x_a, x_b) in behavior.setting_pairs():
        row = behavior.table[(x_a, x_b)]
        writer.writerow([x_a, x_b, *(repr(float(v)) for v in row)])
    return buffer.getvalue()


def behavior_from_csv(text: str, tolerance: float = DEFAULT_TOLERANCE) -> Behavior:
    reader = csv.reader(io.StringIO(text))
    # Blank rows are skipped; errors name the file line the row ends on.
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows or [h.strip() for h in rows[0][1]] != CSV_HEADER:
        raise ModelFormatError(f"behavior CSV must start with header {','.join(CSV_HEADER)}")
    table: dict[tuple[int, int], tuple] = {}
    for line_no, row in rows[1:]:
        if len(row) != 6:
            raise ModelFormatError(f"line {line_no}: expected 6 columns")
        try:
            x_a, x_b = int(row[0]), int(row[1])
            values = tuple(float(v) for v in row[2:])
        except ValueError as exc:
            raise ModelFormatError(f"line {line_no}: {exc}") from exc
        if (x_a, x_b) in table:
            raise ModelFormatError(f"line {line_no}: settings {x_a},{x_b} given twice")
        table[(x_a, x_b)] = values
    if not table:
        raise ModelFormatError("behavior CSV has no data rows")
    n_a = max(x for x, _ in table) + 1
    n_b = max(x for _, x in table) + 1
    return Behavior(n_settings_A=n_a, n_settings_B=n_b, table=table, tolerance=tolerance)


def load_behavior_csv(path: str | Path, tolerance: float = DEFAULT_TOLERANCE) -> Behavior:
    return behavior_from_csv(Path(path).read_text(), tolerance=tolerance)
