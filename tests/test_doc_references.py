"""Every attribute of ``Objective``, ``Batch``, ``Batches``, ``Margins`` or
``Dataset`` that a docstring or comment of the package, or README.md,
quotes (a backtick, then ``Class.name``) exists, so no text names a method
that is gone."""

import re

import numpy as np

from stochfw.objectives import Batch, Batches, Margins, Objective

from conftest import ROOT, tiny_objective

_QUOTED = re.compile(r"`(Objective|Batch|Batches|Margins|Dataset)\.(\w+)")


def quoted():
    """(where, class name, attribute) of every quote."""
    for path in [*sorted((ROOT / "src" / "stochfw").glob("*.py")), ROOT / "README.md"]:
        for line, text in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for match in _QUOTED.finditer(text):
                yield f"{path.relative_to(ROOT)}:{line}", *match.groups()


def test_quoted_attributes_exist():
    # instances, so attributes set by a constructor count as well as the class's
    obj = tiny_objective()
    steps = Batches(obj, np.zeros((1, 1, 2), dtype=np.int64))
    instances = {"Objective": obj, "Batch": Batch(steps, 0), "Batches": steps,
                 "Margins": Margins(obj, np.zeros(obj.d)), "Dataset": obj.dataset}
    found = list(quoted())
    assert len(found) >= 10, found  # the pattern still reads the quotes
    missing = [f"{where}: {name}.{attr}" for where, name, attr in found
               if not hasattr(instances[name], attr)]
    assert missing == []
