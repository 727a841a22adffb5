"""The package re-exports its library modules' public names and nothing
else: each name is declared once, in its module's __all__."""
import json
import os
import subprocess
import sys

import canomap
from canomap import cli, hamilton, invariants, liemap, mapping, phasecore, scenarios

MODULES = (phasecore, hamilton, mapping, invariants, liemap, scenarios)


def test_package_all_is_the_module_lists_in_import_order():
    names = canomap.__all__
    assert len(names) == len(set(names)) == 51
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


def test_the_import_loads_neither_numpy_polynomial_nor_sympy(tmp_path):
    # the quadrature's nodes are literals and the symbolic checks live in the
    # tests, so importing the package and its CLI stays light; and a run, a
    # sweep or a verify imports nothing more, so no verdict pays a lazy import
    # (np.unique loads numpy.ma, np.random numpy.random and hashlib)
    code = """import json, os, sys, canomap, canomap.cli as cli
heavy = ('numpy.polynomial', 'sympy', 'numpy.ma', 'numpy.random')
loaded = [m for m in heavy if m in sys.modules]
cli._build_parser()   # argparse's first parser imports locale, through gettext
before, codes = set(sys.modules), []
for name in cli.SCENARIOS:
    path = os.path.join(sys.argv[1], name + '.json')
    with open(path, 'w') as fh:
        json.dump({'scenario': name, 't1': 0.05, 'step': 0.01,
                   'output_dir': os.path.join(sys.argv[1], name)}, fh)
    codes.append(cli.main(['run', '--config', path]))
    codes.append(cli.main(['verify', '--config', path]))
codes.append(cli.main(['sweep', '--config', path, '--param', 'seed', '--values', '1,2']))
print(json.dumps([loaded, codes, sorted(set(sys.modules) - before)]))
"""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env.pop("CANOMAP_OUT", None)
    proc = subprocess.run([sys.executable, "-B", "-c", code, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, codes, imported = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == []
    assert codes == [0] * (2 * len(cli.SCENARIOS) + 1)
    assert imported == []
