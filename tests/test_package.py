import os
import subprocess
import sys

import starcache
from starcache.models import DESIGNS, MODEL_NAMES

SRC = os.path.dirname(os.path.dirname(starcache.__file__))


def test_every_export_is_unique_and_resolves():
    names = starcache.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(starcache, name)]
    assert not missing


def test_model_names_are_the_design_table_keys_in_report_order():
    # perfbench's sim_digest hashes the models in this order
    assert MODEL_NAMES == tuple(DESIGNS) == ("sa-lru", "star-farr", "star-news")


def test_import_loads_no_test_or_async_machinery():
    # `import starcache` is the setup cost of every run; these packages
    # would add tens of milliseconds to it
    code = ("import sys, starcache; "
            "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": SRC}).stdout.split()
    assert not {"unittest", "asyncio", "pytest", "hypothesis"} & set(out)
