"""The package re-exports its library modules' public names and nothing
else: each name is declared once, in its module's __all__."""
import os
import subprocess
import sys

import canomap
from canomap import cli, hamilton, invariants, liemap, mapping, phasecore, scenarios

MODULES = (phasecore, hamilton, mapping, invariants, liemap, scenarios)


def test_package_all_is_the_module_lists_in_import_order():
    names = canomap.__all__
    assert len(names) == len(set(names)) == 55
    assert names[-1] == "__version__" and isinstance(canomap.__version__, str)
    # block by block, in import order (the order inside a block is not pinned)
    start = 0
    for mod in MODULES:
        block = names[start:start + len(mod.__all__)]
        assert sorted(block) == sorted(mod.__all__), mod.__name__
        start += len(mod.__all__)
    assert start == len(names) - 1


def test_each_package_name_is_its_module_object():
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(canomap, name) is getattr(mod, name), (mod.__name__, name)


def test_the_cli_is_not_re_exported():
    assert not [name for name in cli.__all__ if hasattr(canomap, name)]
    assert not set(cli.__all__) & set(canomap.__all__)


def test_the_import_loads_neither_numpy_polynomial_nor_sympy():
    # the quadrature's nodes are literals and the symbolic checks live in the
    # tests, so importing the package and its CLI stays light
    code = ("import sys, canomap, canomap.cli\n"
            "print([m for m in ('numpy.polynomial', 'sympy') if m in sys.modules])")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
