"""Golden outputs: what in-process ``cli.main`` writes for ``lemma1``,
``lemma2 --format csv`` and ``ratio`` (CSV and JSON) at N = 2 and 3, for
``verify --grid-eps-min inf`` (its JSON and its data CSV, written under
relative paths in an empty working directory), for one coarse ``eig`` of
``Dumbbell(0.2)``, and for the default families' sweep records on the
coarse levels 1/8, 1/16, 1/32 (``sweep``'s CSV, and ``plotdata``'s cloud and
boundary CSVs), compared byte for byte with the files under
``tests/golden/``.  Any change to them is a change to the printed numbers,
to be stated with its reason.  The ``eig`` file pins the per-level
iterations and residuals, so it shows that ``eig`` keeps the residual stop
on its finest level.  Only coarse grids are solved, so the whole set runs
in a few seconds.

To rewrite the files after an intended output change, run
``python tests/test_golden.py`` with ``src`` on the path."""

import contextlib
import io
import os
from pathlib import Path

import pytest

from spectralgap import cli

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

COMMANDS = {
    f"{name}_dim{dim}{suffix}": [name, "--dim", str(dim), *extra]
    for dim in (2, 3)
    for name, suffix, extra in (("lemma1", ".json", []),
                                ("lemma2", ".csv", ["--format", "csv"]),
                                ("ratio", ".csv", []),
                                ("ratio", ".json", ["--format", "json"]))
}
COARSE = ["--h", "1/8,1/16,1/32"]
COMMANDS["eig_dumbbell.json"] = ["eig", "--domain", "dumbbell", "--eps", "0.2",
                                  *COARSE, "--seed", "1"]
COMMANDS["sweep_coarse.csv"] = ["sweep", *COARSE]
VERIFY = "verify_no_grid_check.json"
VERIFY_DATA = "verify_no_grid_check_data.csv"
# plotdata writes its two CSVs under the default prefix "plotdata"
PLOTDATA = ("plotdata_cloud.csv", "plotdata_boundary.csv")
WRITTEN = (VERIFY, VERIFY_DATA, *PLOTDATA)


def _run(argv):
    """(exit code, stdout) of one in-process ``cli.main`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _outputs(workdir):
    """Every golden file's name and its text, generated afresh; ``verify``
    and ``plotdata`` write their CSVs into ``workdir``."""
    texts = {}
    for name, argv in COMMANDS.items():
        code, texts[name] = _run(argv)
        assert code == 0, argv
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        code, texts[VERIFY] = _run(["verify", "--grid-eps-min", "inf"])
        texts[VERIFY_DATA] = Path("ratio_curve.csv").read_text()
        assert code == 0
        code, paths = _run(["plotdata", *COARSE])
        assert (code, paths) == (0, "".join(f"{name}\n" for name in PLOTDATA))
        texts.update((name, Path(name).read_text()) for name in PLOTDATA)
    finally:
        os.chdir(previous)
    return texts


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return _outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [*COMMANDS, *WRITTEN])
def test_output_matches_golden_file(outputs, name):
    assert outputs[name] == (GOLDEN_DIR / name).read_text()


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _outputs(tmp).items():
            (GOLDEN_DIR / name).write_text(text)
