"""The compiled kernel: that it loads wherever it can be built, how its
build is cached, that every way a build can fail leaves the Python
kernel, and that malformed input raises instead of crashing."""

import os
import shutil
import subprocess
import sys
import sysconfig
import warnings
from itertools import product

import pytest

from idastra import _backend, _kernels_py, backend_name
from idastra.core import GOAL, make_root
from idastra.domains.synthetic import ArtificialProblem, ArtificialSpec

_PACKAGE = os.path.dirname(_backend.SOURCE)


def _compiler_present():
    """Whether the interpreter's own compiler and Python.h exist, read
    from sysconfig apart from the loader's code."""
    cc = (sysconfig.get_config_var("CC") or "").split()
    include = sysconfig.get_paths()["include"]
    return bool(cc) and shutil.which(cc[0]) is not None \
        and os.path.isfile(os.path.join(include, "Python.h"))


def test_the_compiled_kernel_loads_wherever_it_can_be_built():
    # a build that silently fails would leave every parity test running
    # the Python kernel alone
    if _compiler_present():
        assert backend_name() == "c"
        assert _backend.kernels.synthetic_expand \
            is _backend.compiled.synthetic_expand
    else:
        assert backend_name() == "python"
    # every other kernel is the Python one
    for name in ("puzzle_expand", "manhattan", "path_hash"):
        assert getattr(_backend.kernels, name) is getattr(_kernels_py, name)


@pytest.fixture
def source(tmp_path):
    """A copy of the C source, with an empty cache beside it."""
    path = tmp_path / "_ckernels.c"
    shutil.copyfile(_backend.SOURCE, path)
    return str(path)


@pytest.fixture
def builds(monkeypatch):
    """The sources the loader compiles, in order."""
    built = []
    build = _backend._build

    def counting(source, target):
        built.append(source)
        return build(source, target)

    monkeypatch.setattr(_backend, "_build", counting)
    return built


def _cache(source):
    return sorted(os.listdir(os.path.join(os.path.dirname(source),
                                          "__pycache__")))


needs_compiler = pytest.mark.skipif(
    not _compiler_present(), reason="no C compiler or Python.h; "
    "test_the_compiled_kernel_loads_wherever_it_can_be_built covers this")


@needs_compiler
def test_a_cold_cache_builds_once_and_a_warm_one_never(source, builds):
    module = _backend.load_compiled(source)
    assert builds == [source]
    assert _cache(source) == [os.path.basename(_backend.build_path(source))]
    again = _backend.load_compiled(source)
    assert builds == [source]
    assert again.synthetic_expand(((b"", 0, 0, 0), 0, 0, -1, None), 0, None,
                                  None, ((), (), b"", 0, 0, 1)) is GOAL
    assert module.__doc__ == again.__doc__


@needs_compiler
def test_an_edited_source_is_built_again(source, builds):
    first = _backend.load_compiled(source)
    old = _cache(source)
    with open(source) as fh:
        text = fh.read()
    with open(source, "w") as fh:
        fh.write(text.replace("idastra's compiled kernels",
                              "idastra's edited kernels"))
    edited = _backend.load_compiled(source)
    assert builds == [source, source]
    assert "compiled kernels" in first.__doc__
    assert "edited kernels" in edited.__doc__
    # the new build replaces the old one
    assert _cache(source) == [os.path.basename(_backend.build_path(source))]
    assert _cache(source) != old


def _copy_package(tmp_path):
    """A copy of the package, with no cache, importable from the returned
    directory."""
    root = tmp_path / "site"
    shutil.copytree(_PACKAGE, root / "idastra",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return str(root)


def _import_in_child(root, cc=None):
    """Import the package at root in a fresh interpreter under -X dev,
    with every warning an error; returns (exit code, stdout, stderr)."""
    env = {k: v for k, v in os.environ.items() if k != "CC"}
    env["PYTHONPATH"] = root
    if cc is not None:
        env["CC"] = cc
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c",
         "import idastra; print(idastra.backend_name())"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300,
        check=False)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("cc", ["false", "no-such-compiler"])
def test_a_failing_compiler_leaves_the_python_kernel(tmp_path, cc):
    root = _copy_package(tmp_path)
    assert _import_in_child(root, cc) == (0, "python\n", "")
    cache = os.path.join(root, "idastra", "__pycache__")
    assert not [name for name in os.listdir(cache)
                if name.startswith("_ckernels.")]


@needs_compiler
def test_a_fresh_interpreter_builds_and_loads_the_kernel(tmp_path):
    # the cold build under -X dev, and then a warm load that a failing
    # compiler cannot disturb
    root = _copy_package(tmp_path)
    assert _import_in_child(root) == (0, "c\n", "")
    assert _import_in_child(root, "false") == (0, "c\n", "")


def test_a_read_only_cache_leaves_the_python_kernel(source, builds,
                                                    monkeypatch):
    cache = os.path.join(os.path.dirname(source), "__pycache__")
    os.mkdir(cache, 0o555)
    if os.geteuid() == 0:
        # root writes through mode bits; fail the loader's first write
        # in the cache as a read-only directory fails it
        def refused(*_args, **_kwargs):
            raise PermissionError(13, "Permission denied", cache)
        monkeypatch.setattr("tempfile.mkstemp", refused)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _backend.load_compiled(source) is None
        assert builds == [source] or not _compiler_present()
        assert os.listdir(cache) == []
    finally:
        os.chmod(cache, 0o755)


# --- the compiled kernel's own safety ------------------------------------

@pytest.fixture
def compiled():
    if _backend.compiled is None:
        pytest.skip("the compiled kernel did not load; "
                    "test_the_compiled_kernel_loads_wherever_it_can_be_"
                    "built says whether it should have")
    return _backend.compiled.synthetic_expand


def _problem(**kw):
    spec = dict(d=4, g=0.4, b=3, imbalance=0.3, density=0.05, herror=2,
                seed=5)
    spec.update(kw)
    return ArtificialProblem(ArtificialSpec(**spec))


def _malformed_calls(problem):
    """(node, tables) pairs each of which the compiled kernel must refuse
    with TypeError."""
    root = make_root(problem)
    state, g, h, op, parent = root
    path, shared, err, goal = state
    tables = problem._tables
    on_path = tables[0]
    indices = on_path[0]
    nodes = [None, [state, g, h, op, parent], root[:4], root + (None,),
             (list(state), g, h, op, parent), (state[:2], g, h, op, parent),
             (state[:3], g, h, op, parent), (state + (0,), g, h, op, parent),
             ((bytearray(path), shared, err, goal), g, h, op, parent),
             ((path, 0.0, err, goal), g, h, op, parent),
             ((path, shared, str(err), goal), g, h, op, parent),
             ((path, shared, err, float(goal)), g, h, op, parent),
             (state, 1.0, h, op, parent)]
    bad_indices = [None, list(indices), ("0",) + indices[1:],
                   tuple(range(257)), indices + (256,), indices + (-1,)]
    bad_tables = [None, list(tables), tables[:5], tables + (None,),
                  (list(on_path),) + tables[1:],
                  ((None,) * len(on_path),) + tables[1:],
                  tables[:2] + (list(tables[2]),) + tables[3:],
                  tables[:3] + (float(tables[3]),) + tables[4:],
                  tables[:4] + (float(tables[4]),) + tables[5:],
                  tables[:5] + (float(tables[5]),)] \
        + [((bad,) + on_path[1:],) + tables[1:] for bad in bad_indices]
    return [(node, tables) for node in nodes] \
        + [(root, bad) for bad in bad_tables]


def test_malformed_input_raises_type_error(compiled):
    problem = _problem()
    for node, tables in _malformed_calls(problem):
        with pytest.raises(TypeError):
            compiled(node, 10, [].append, [].append, tables)
    root = make_root(problem)
    for args in ((), (root,), (root, 10, None, None, problem._tables, 1)):
        with pytest.raises(TypeError):
            compiled(*args)
    for threshold in ("10", 10.0):
        with pytest.raises(TypeError):
            compiled(root, threshold, [].append, [].append, problem._tables)


def test_out_of_range_input_raises_as_the_python_kernel_does(compiled):
    problem = _problem(density=0.0)
    state, *rest = make_root(problem)
    tables = problem._tables
    deep = (b"\0" * 9, 0, *state[2:])
    for kernel in (compiled, _kernels_py.synthetic_expand):
        # a path deeper than the tables
        with pytest.raises(IndexError):
            kernel((deep, *rest), 10, [].append, [].append, tables)
        # a push or prune that raises
        with pytest.raises(ZeroDivisionError):
            kernel(make_root(problem), 10, lambda _c: 1 / 0, None, tables)
        with pytest.raises(ZeroDivisionError):
            kernel(make_root(problem), 0, None, lambda _f: 1 / 0, tables)
    # a hash lane outside [0, 2^64)
    for lane in (-1, 1 << 64, 1 << 200):
        for lanes in ((lane, state[3]), (state[2], lane)):
            with pytest.raises(OverflowError):
                compiled(((b"", 0, *lanes), *rest), 10, [].append,
                         [].append, tables)
    with pytest.raises(OverflowError):
        compiled((state, 1 << 62, *rest[1:]), 1 << 63, [].append,
                 [].append, tables)
    with pytest.raises(ValueError):
        compiled(make_root(problem), 10, [].append, [].append,
                 tables[:5] + (0,))


def _all_nodes(problem):
    nodes = []
    stack = [make_root(problem)]
    while stack:
        node = stack.pop()
        nodes.append(node)
        _kernels_py.synthetic_expand(node, sys.maxsize, stack.append, None,
                                     problem._tables)
    return nodes


def test_refcounts_hold_over_many_expansions(compiled):
    # every node of two small trees, leaves (GOAL and ()) included, at
    # thresholds that prune all, some or none of the children
    problems = [_problem(), _problem(density=0.0, herror=0)]
    calls = [(node, problem._tables) for problem in problems
             for node in _all_nodes(problem)]
    # each state's two hash lanes are ints of their own
    watched = [GOAL] + [node for node, _tables in calls] \
        + [lane for node, _tables in calls for lane in node[0][2:]] \
        + [indices for problem in problems
           for indices in problem._tables[0] + problem._tables[1]]
    before = [sys.getrefcount(obj) for obj in watched]
    children, pruned = [], []
    expansions = 0
    while expansions < 100_000:
        for node, tables in calls:
            for threshold in (0, 3, 5, sys.maxsize):
                result = compiled(node, threshold, children.append,
                                  pruned.append, tables)
                children.clear()
                pruned.clear()
                expansions += 1
    del result, node, tables
    assert [sys.getrefcount(obj) for obj in watched] == before


def test_the_kernels_agree_at_extreme_thresholds_and_moduli(compiled):
    # every node of small trees, at thresholds past a machine word, and
    # with herror + 1 at and past 2^64, where the error draw is the lane
    # itself; density 1.0 puts the density threshold at 2^64, above every
    # goal hash, so every leaf is a goal
    thresholds = (-(1 << 70), -(1 << 63) - 1, -1, 0, 1, 2, 3, 4, 5,
                  (1 << 63) - 1, 1 << 63, 1 << 70)
    for herror, density in product(
            (0, 3, (1 << 64) - 2, (1 << 64) - 1, 1 << 64, 1 << 70),
            (0.0, 0.05, 1.0)):
        problem = _problem(herror=herror, density=density)
        assert problem._tables[4] == int(density * (1 << 64))
        for node in _all_nodes(problem):
            leaf = len(node[0][0]) == problem.spec.d
            for threshold in thresholds:
                got, want = ([], []), ([], [])
                result = compiled(node, threshold, got[0].append,
                                  got[1].append, problem._tables)
                expected = _kernels_py.synthetic_expand(
                    node, threshold, want[0].append, want[1].append,
                    problem._tables)
                # GOAL is an empty tuple, so == alone does not tell it
                assert result == expected
                assert type(result) is type(expected)
                assert got == want, (herror, density, node[0], threshold)
                if leaf and density == 1.0:
                    assert result is GOAL and expected is GOAL
