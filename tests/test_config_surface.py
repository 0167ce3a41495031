"""README's "Configuration surface" table is the serving stack's knob
list, and it must stay true and small.

The table is parsed, and each row's backticked names must equal the
fields the code exposes: ``Planner.__init__``'s parameters after
``db``, ``dataclasses.fields`` of ``ServingConfig`` and
``FrontEndConfig`` (and of ``WorkerSpec``, which ``ServingFrontEnd.build``
fills in, so it is documented but not counted), and of the learning
loop's ``LearningConfig``, counted on its own. A knob added to the code
without a README row fails here, and so does a request path that grows
past 8 caller-settable fields or a learning loop past 8.
"""

import dataclasses
import inspect
import re
from pathlib import Path

from repro.optimizer.planner import Planner
from repro.serving import FrontEndConfig, LearningConfig, ServingConfig, WorkerSpec

README = Path(__file__).resolve().parents[1] / "README.md"
#: The most caller-settable fields the serving stack may expose.
MAX_FIELDS = 8
#: The most fields ``LearningConfig`` may expose, apart from the above.
MAX_LEARNING_FIELDS = 8


def surface_table():
    """``{object: [field, ...]}`` from README's table, in row order."""
    section = README.read_text().split("### Configuration surface", 1)[1]
    rows = {}
    for line in section.splitlines():
        if rows and not line.startswith("|"):
            break  # the table has ended
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`"):
            continue  # text before the table, the header or the rule
        name = re.match(r"`(\w+)", cells[0]).group(1)
        rows[name] = re.findall(r"`(\w+)`", cells[1])
    return rows


def planner_fields():
    params = list(inspect.signature(Planner.__init__).parameters)
    assert params[:2] == ["self", "db"]
    return params[2:]


def dataclass_fields(cls):
    return [f.name for f in dataclasses.fields(cls)]


CALLER_SETTABLE = {
    "Planner": planner_fields,
    "ServingConfig": lambda: dataclass_fields(ServingConfig),
    "FrontEndConfig": lambda: dataclass_fields(FrontEndConfig),
}


def test_the_table_lists_exactly_the_configurable_objects():
    assert list(surface_table()) == [*CALLER_SETTABLE, "WorkerSpec", "LearningConfig"]


def test_each_row_equals_the_code():
    table = surface_table()
    for name, fields in CALLER_SETTABLE.items():
        assert table[name] == fields(), name
    assert table["WorkerSpec"] == dataclass_fields(WorkerSpec)
    assert table["LearningConfig"] == dataclass_fields(LearningConfig)


def test_the_surface_stays_small():
    total = sum(len(fields()) for fields in CALLER_SETTABLE.values())
    assert total <= MAX_FIELDS
    assert len(dataclass_fields(LearningConfig)) <= MAX_LEARNING_FIELDS
