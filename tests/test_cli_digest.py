"""Pipeline-digest gate: a digest of every output file and of every
command's stdout and stderr over one scripted CLI workflow.

The paper's workflow runs as separate commands, gen -> sweep -> train ->
advise/solve -> report, plus curves for the closed-form models.  This
test runs one such workflow in process, in sim mode, so that every byte
it writes is deterministic:

- gen at two depths and two heuristic errors;
- sweep over three strategy axes at two architectures (P4 and P8) into
  one records file and one store, so that the trees have architecture
  splits;
- train on each axis, one with --filter;
- advise, and solve with the models;
- report over the records, and curves on each curve's default grid.

The commands run in a temporary directory and name their files by
relative paths, so no temporary path reaches an output.
tests/data/cli_digest.txt holds one short digest per command's stdout
and stderr and per output file, so that a moved digest names what
changed.  A change that alters the pipeline's bytes on purpose re-pins
it by running

    PYTHONPATH=src python tests/test_cli_digest.py

and says in CHANGES.md why the bytes moved.
"""

import contextlib
import hashlib
import io
import os
import tempfile

from idastra.cli import main

_DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "data", "cli_digest.txt")

_INSTANCES = [f"inst/inst_{i:04d}.spec" for i in range(4)]
_RUN = ["--budget", "50", "--seed", "3"]
_AXES = (("clusters", "1,2,4"), ("polling", "Neighbor,Random"),
         ("distribution", "KumarRao,BreadthFirst"))
_MODELS = [f"--model={axis}=models/{axis}.tree" for axis, _grid in _AXES]

WORKFLOW = (
    # d cycles 5,6 and herror 1,1,3,3: every (d, herror) pair once
    ["gen", "--out", "inst", "--count", "4", "--d", "5,6",
     "--herror", "1,1,3,3", "--g", "0.2,0.8", "--b", "3",
     "--density", "1e-9", "--seed", "1"],
    *(["sweep", "--instances", "inst", "--axis", axis, "--grid", grid,
       "--workers", workers, *_RUN, "--out", "records.csv",
       "--store", "cases.jsonl"]
      for workers in ("4", "8") for axis, grid in _AXES),
    ["train", "--store", "cases.jsonl", "--axis", "clusters", "--folds",
     "2", "--out", "models/clusters.tree"],
    ["train", "--store", "cases.jsonl", "--axis", "polling", "--folds",
     "2", "--filter", "--out", "models/polling.tree"],
    ["train", "--store", "cases.jsonl", "--axis", "distribution",
     "--folds", "2", "--out", "models/distribution.tree"],
    ["advise", "--instances", _INSTANCES[1], *_MODELS, "--workers", "8",
     *_RUN],
    ["solve", "--instances", _INSTANCES[2], *_MODELS, "--workers", "4",
     *_RUN, "--out", "solve.csv"],
    ["report", "records.csv", "solve.csv", "--out", "report.csv"],
    *(["curves", curve, "--out", f"{curve}.csv"]
      for curve in ("eq1", "eq2", "fig5", "fig6")),
)


def _short(data):
    return hashlib.sha256(data).hexdigest()[:16]


def _run_workflow(root):
    """Run WORKFLOW in root; return [(label, short digest)] for each
    command's stdout and stderr, in order, then for each file under
    root, by relative path."""
    digests = []
    here = os.getcwd()
    os.chdir(root)
    try:
        os.mkdir("models")
        for n, argv in enumerate(WORKFLOW, 1):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 0, (argv, err.getvalue())
            label = f"{n:02d} {argv[0]}"
            digests.append((f"{label} stdout",
                            _short(out.getvalue().encode())))
            digests.append((f"{label} stderr",
                            _short(err.getvalue().encode())))
        for dirpath, _dirs, names in sorted(os.walk(".")):
            for name in sorted(names):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    digests.append((f"file {os.path.relpath(path)}",
                                    _short(fh.read())))
    finally:
        os.chdir(here)
    return digests


def _read_digests():
    with open(_DIGEST_FILE) as fh:
        return [tuple(line.rstrip("\n").rsplit(" = ", 1)) for line in fh]


def test_cli_pipeline_digest_matches_pin(tmp_path):
    digests = _run_workflow(tmp_path)
    pinned = _read_digests()
    moved = [f"{label}: {short} (pinned {want})"
             for (label, short), (_, want) in zip(digests, pinned)
             if short != want]
    assert not moved, "moved: " + "; ".join(moved)
    assert [label for label, _ in digests] \
        == [label for label, _ in pinned]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        digests = _run_workflow(root)
    with open(_DIGEST_FILE, "w") as fh:
        fh.writelines(f"{label} = {short}\n" for label, short in digests)
    print(f"{len(digests)} digests written to {_DIGEST_FILE}")
