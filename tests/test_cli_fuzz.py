"""Fuzzed input files: a dataset, a --config file or a replay manifest made
of arbitrary bytes, or of a valid file's pieces mixed with arbitrary text,
must end the command with a documented exit code, never a traceback."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bayesgof import cli

# exit codes an input file can cause in validate: ok, usage error, data error
DOCUMENTED = {cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA}

FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def _exit_code(*args) -> int:
    """The code the process would exit with; a help or version flag in a
    config file ends argparse with SystemExit."""
    try:
        return cli.main([str(a) for a in args])
    except SystemExit as exc:
        return exc.code or 0


@pytest.fixture()
def work(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text("y,E\n3,1.5\n0,2.0\n7,4.0\n")
    return tmp_path, good


_cell = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats().map(repr),
    st.sampled_from(["", " ", "nan", "inf", "-0.0", "1e400", "0x10", "\ufeff1", '"2"', "1,"]),
    st.text(max_size=6),
)
_csv_text = st.builds(
    lambda bom, header, rows, end: (bom + header + end + end.join(",".join(r) for r in rows)),
    st.sampled_from(["", "\ufeff"]),  # a byte-order mark, or none
    st.sampled_from(["y", "y,E", "Y , e", "y,E,z", "E,y", ""]),
    st.lists(st.lists(_cell, min_size=0, max_size=3), max_size=6),
    st.sampled_from(["\n", "\r\n", "\r"]),
).map(lambda t: t.encode("utf-8", errors="surrogatepass"))


@FUZZ
@given(
    content=st.one_of(st.binary(max_size=200), _csv_text),
    model=st.sampled_from([None, "normal", "poisson-common", "poisson-saturated"]),
)
def test_fuzzed_dataset_exits_with_a_documented_code(work, content, model):
    tmp_path, _ = work
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    args = ["validate", "--data", path, "--outdir", tmp_path / "out"]
    if model is not None:
        args += ["--model", model]
    assert _exit_code(*args) in DOCUMENTED


_nul_path = st.builds(
    lambda head, tail: f"{head}\0{tail}", st.text(max_size=8), st.text(max_size=8)
).filter(lambda path: not set(path) & set("\r\n#"))


@settings(FUZZ, max_examples=40)  # three commands per example
@given(path=_nul_path, through_config=st.booleans())
def test_input_path_holding_a_nul_byte_exits_65(work, path, through_config):
    """No file is opened: a NUL byte ends the path's use at open()."""
    tmp_path, good = work
    cfgfile = tmp_path / "run.cfg"
    for command, flag, rest in (
        ("validate", "data", ()),
        ("monitor", "data", ("--model", "poisson-common")),
        ("monitor", "draws-file", ("--data", good, "--model", "poisson-common")),
    ):
        if through_config:
            cfgfile.write_text(f"{flag} = {path}\n", encoding="utf-8", errors="surrogatepass")
            given_path = ("--config", cfgfile)
        else:
            given_path = (f"--{flag}", path)
        code = _exit_code(command, *given_path, *rest, "--outdir", tmp_path / "out")
        assert code == cli.EXIT_DATA


# the validate flags a config file may set; data and outdir stay on the
# command line, so that no fuzzed path is read from or written to
_config_key = st.sampled_from([
    "model", "prior-exponent", "prior_exponent", "sigma2-fixed", "chain-burn-in",
    "chain-thin", "chain_target_accept", "chain-step", "seed", "help", "config", "bogus",
])
_config_line = st.one_of(
    st.builds(
        lambda key, sep, value: f"{key}{sep}{value}",
        _config_key,
        st.sampled_from(["=", " = ", "==", " ", "=#"]),
        st.one_of(
            st.sampled_from(["normal", "poisson-exchangeable", "0.5", "1.0", "true", "no"]),
            st.integers(-5, 10**6).map(str),
            st.floats().map(repr),
            st.text(max_size=8),
        ),
    ),
    st.text(max_size=20),
)
_config_text = st.lists(_config_line, max_size=6).map(
    lambda lines: "\n".join(lines).encode("utf-8", errors="surrogatepass")
)


@FUZZ
@given(content=st.one_of(st.binary(max_size=200), _config_text))
def test_fuzzed_config_file_exits_with_a_documented_code(work, content):
    tmp_path, good = work
    path = tmp_path / "run.cfg"
    path.write_bytes(content)
    code = _exit_code(
        "validate", "--data", good, "--config", path, "--outdir", tmp_path / "out"
    )
    assert code in DOCUMENTED


@pytest.fixture()
def recorded(work):
    tmp_path, good = work
    first = tmp_path / "first"
    assert _exit_code("validate", "--data", good, "--model", "poisson-exchangeable",
                      "--outdir", first) == 0
    return tmp_path, (first / "manifest.json").read_bytes()


_edit = st.tuples(st.integers(0, 2000), st.integers(0, 4), st.binary(max_size=4))


def _mutate(data: bytes, edits) -> bytes:
    """Replace a few short runs of bytes."""
    for at, width, new in edits:
        at %= len(data) + 1
        data = data[:at] + new + data[at + width:]
    return data


@FUZZ
@given(
    content=st.one_of(
        st.binary(max_size=200),
        st.lists(_edit, min_size=1, max_size=4),  # edits of a recorded manifest
        st.dictionaries(
            st.sampled_from(["command", "config", "version", "seed"]),
            st.recursive(
                st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                max_leaves=6,
            ),
        ),
    ),
)
def test_fuzzed_replay_manifest_exits_with_a_documented_code(recorded, content):
    tmp_path, manifest = recorded
    if isinstance(content, list):
        content = _mutate(manifest, content)
    elif isinstance(content, dict):
        content = json.dumps(content).encode()
    path = tmp_path / "manifest.json"
    path.write_bytes(content)
    assert _exit_code("replay", path, "--outdir", tmp_path / "out") in DOCUMENTED
