"""Every example still imports against the package.

No CI step runs the examples, so a deletion that strands one would rot
unnoticed.  Each example guards ``main()``; running it under another
``__name__`` executes its imports and module-level definitions only.
"""

import pathlib
import runpy

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_module_level_runs(path):
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace.get("main"))
