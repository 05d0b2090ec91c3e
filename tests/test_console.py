"""The `dimorb` command's exit codes, json output, unwritable stdout and stderr, and a
calibration file written whole or not at all, checked in a fresh process.

The command is the one in DIMORB_BIN, split as a shell would split it, or
`python -m dimorb` when that is unset; so the same checks cover the installed
console script (`DIMORB_BIN=dimorb`) and a source checkout.
"""

import contextlib
import errno
import json
import os
import re
import resource
import shlex
import signal
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import dimorb
from dimorb.compare import default_observed, format_observed_csv
from dimorb.quantities import ModelConstants
from dimorb.spectrum import calibrate, format_calibration

SRC = str(Path(dimorb.__file__).resolve().parents[1])
ENV = {key: value for key, value in os.environ.items() if key != "DIMORB_CONFIG"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
PYTHON_M_DIMORB = [sys.executable, "-m", "dimorb"]
COMMAND = shlex.split(os.environ.get("DIMORB_BIN", "")) or PYTHON_M_DIMORB

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# the `dimorb ...` lines of the README's shell blocks, comments dropped
README_LINES = [shlex.split(line, comments=True)[1:] for block in
                re.findall(r"^```sh\n(.*?)^```$", README, re.S | re.M)
                for line in block.splitlines() if line.startswith("dimorb ")]

CONFIGS = {
    "not-utf8.conf": b"alpha=0.0073\xff\n",
    "bad.conf": b"m_z_gev ninety\n",
    "bom.conf": b"\xef\xbb\xbfm_z_gev=90\n",
    "bom-then-not-utf8.conf": b"\xef\xbb\xbf# \xff\n",
}


def _dimorb(argv, cwd, config=None, command=COMMAND):
    env = dict(ENV)
    if config is not None:
        (cwd / config).write_bytes(CONFIGS[config])
        env["DIMORB_CONFIG"] = config
    return subprocess.run([*command, *argv], env=env, cwd=cwd, capture_output=True)


def test_python_m_dimorb_prints_the_spectrum(tmp_path):
    child = _dimorb(["fermions", "--calibrate"], tmp_path, command=PYTHON_M_DIMORB)
    assert child.returncode == 0, child.stderr
    assert len(child.stdout.splitlines()) == 2 + 12


@pytest.mark.parametrize("argv", [
    "bosons",
    "fermions --calibrate",
    "compare",
    "sweep alpha --from 0.0073 --to 0.0146 --steps 3",
])
def test_json_output_parses(argv, tmp_path):
    # dimorb writes its json itself, so each Python parses it
    child = _dimorb([*argv.split(), "--format", "json"], tmp_path)
    assert child.returncode == 0, child.stderr
    assert isinstance(json.loads(child.stdout), list)


@pytest.mark.parametrize("code, config, argv", [
    (0, None, "bosons"),
    (1, None, "bosons --alpha 2"),
    (2, None, "fermions --calibration missing.txt"),
    (3, None, "compare --check"),
    # a config file that is not valid UTF-8 is unreadable data, not a usage error
    (2, "not-utf8.conf", "bosons"),
    # a bad flag is rejected before a malformed config file is read
    (1, "bad.conf", "sweep alpha --from 0.007 --to 0.008 --steps 0"),
    (1, "bad.conf", "compare --check --tol 0"),
    # a leading UTF-8 byte-order mark is accepted
    (0, "bom.conf", "bosons"),
    # a bad --tol is rejected before the report is written
    (1, None, "compare --check --tol 0"),
    # a missing calibration source is a usage error like any other
    (1, None, "fermions"),
    (2, "bom-then-not-utf8.conf", "bosons"),
])
def test_exit_code(code, config, argv, tmp_path):
    child = _dimorb(argv.split(), tmp_path, config)
    assert child.returncode == code, child.stderr
    # a usage error or unreadable data prints nothing on stdout; a tolerance breach its report
    assert (child.stdout == b"") == (code in (1, 2))


def test_a_decode_error_after_a_byte_order_mark_names_the_file_offset(tmp_path):
    child = _dimorb(["bosons"], tmp_path, "bom-then-not-utf8.conf")
    assert (child.returncode, child.stdout) == (2, b"")
    assert b"can't decode byte 0xff in position 5" in child.stderr


def test_the_readme_command_lines_run_in_order(tmp_path):
    # one directory, so the file `calibrate --out` writes is the one read after it
    (tmp_path / "my.csv").write_text(format_observed_csv(default_observed()))
    assert len(README_LINES) >= 8
    for argv in README_LINES:
        child = _dimorb(argv, tmp_path)
        # the built-in reference set misses the tolerance on some rows
        assert child.returncode == (3 if "--check" in argv else 0), (argv, child.stderr)
        assert b"Traceback" not in child.stderr, argv


def _stdout_error(child, reason: str) -> None:
    # one line, so no "Exception ignored" from the flush at exit and no traceback
    assert (child.returncode, child.stderr.decode().splitlines()) == (
        2, [f"dimorb: error: cannot write stdout: {reason}"])


@contextlib.contextmanager
def _dead_pipe():
    """The write end of a pipe whose reader has gone."""
    read, write = os.pipe()
    os.close(read)
    try:
        yield write
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    "bosons",
    "compare",
    "fermions --calibrate",
    # more text than stdout's buffer holds, so a write fails before the flush
    "sweep alpha --from 0.0073 --to 0.0146 --steps 20",
    "sweep alpha --from 0.0073 --to 0.0146 --steps 3000",
    # argparse writes the help, and from 3.11 on drops a failed write
    "--help",
    "bosons --help",
])
def test_a_stdout_whose_reader_is_gone_exits_2_with_one_line(argv, unbuffered, tmp_path):
    with _dead_pipe() as stdout:
        child = subprocess.run([*COMMAND, *argv.split()], cwd=tmp_path, stdout=stdout,
                               stderr=subprocess.PIPE, env={**ENV, "PYTHONUNBUFFERED": unbuffered})
    _stdout_error(child, "[Errno 32] Broken pipe")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", ["bosons", "bosons --alpha 2", "calibrate --out cal.txt",
                                  "--help"])
def test_a_stdout_and_stderr_whose_readers_are_gone_exit_as_the_stdout_alone(argv, unbuffered,
                                                                             tmp_path):
    codes = []
    for both in (False, True):
        with _dead_pipe() as stdout, _dead_pipe() as stderr:
            codes.append(subprocess.run([*COMMAND, *argv.split()], cwd=tmp_path, stdout=stdout,
                                        stderr=stderr if both else subprocess.DEVNULL,
                                        env={**ENV, "PYTHONUNBUFFERED": unbuffered}).returncode)
    assert codes[1] == codes[0] == (1 if "--alpha" in argv else 2)


@pytest.mark.parametrize("argv", ["bosons", "sweep alpha --from 0.0073 --to 0.0146 --steps 3000",
                                  "--help"])
def test_a_closed_fd_1_exits_2_with_one_line(argv, tmp_path):
    # Python sets sys.stdout to None when fd 1 is closed at start
    child = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *COMMAND, *argv.split()],
                           env=ENV, cwd=tmp_path, stderr=subprocess.PIPE)
    _stdout_error(child, "[Errno 9] Bad file descriptor")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null", None],
                         ids=["closed", "read-only", "reader-gone"])
@pytest.mark.parametrize("argv", ["bosons --alpha 2", "bosons --digits x",
                                  "fermions --calibration missing.txt", "compare --check",
                                  "compare --check --tol 1e-9", "calibrate --out cal.txt"])
def test_a_stderr_that_cannot_be_written_changes_nothing_else(argv, redirect, unbuffered,
                                                              tmp_path):
    # Python sets sys.stderr to None when fd 2 is closed at start, and print() to None writes
    # stdout; a read-only fd 2 or a pipe whose reader has gone makes each diagnostic raise
    outcomes = []
    for i, shell_redirect in enumerate(("", redirect)):  # a writable stderr is the reference
        where = tmp_path / str(i)
        where.mkdir()
        env = {**ENV, "PYTHONUNBUFFERED": unbuffered}
        if shell_redirect is None:
            with _dead_pipe() as stderr:
                child = subprocess.run([*COMMAND, *argv.split()], cwd=where, env=env,
                                       stdout=subprocess.PIPE, stderr=stderr)
        else:
            child = subprocess.run(["sh", "-c", f'exec "$@" {shell_redirect}', "sh", *COMMAND,
                                    *argv.split()], cwd=where, capture_output=True, env=env)
        files = {path.name: path.read_bytes() for path in where.iterdir()}
        outcomes.append((child.returncode, child.stdout, files))
    assert outcomes[1] == outcomes[0]


def _file_size_limit(limit: int):
    """A `preexec_fn` that caps the files the child writes at `limit` bytes."""
    def cap():
        # ignored, SIGXFSZ lets the write past the cap fail with EFBIG instead of killing
        signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
    return cap


@pytest.mark.parametrize("older", [False, True], ids=["new", "older"])
@pytest.mark.parametrize("limit", [0, 40, 82, 84, 98])
def test_a_calibration_file_cut_short_leaves_the_older_one(limit, older, tmp_path):
    # from 82 or 84 bytes on, the cut file reads back with a wrong top lump
    whole = format_calibration(calibrate(ModelConstants()).bases).encode()
    assert limit < len(whole)
    before = {"cal.txt": format_calibration(calibrate(ModelConstants(), "s").bases).encode()}
    if older:
        (tmp_path / "cal.txt").write_bytes(before["cal.txt"])
    child = subprocess.run([*COMMAND, "calibrate", "--out", "cal.txt"], cwd=tmp_path, env=ENV,
                           capture_output=True, preexec_fn=_file_size_limit(limit))
    assert (child.returncode, child.stdout, child.stderr.decode().splitlines()) == (
        2, b"", ["dimorb: error: cannot write calibration file 'cal.txt': "
                 f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"])
    # no temporary file is left beside it
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == (
        before if older else {})


def test_a_calibration_file_that_is_not_a_regular_file_is_written_in_place(tmp_path):
    # a rename onto /dev/null would replace the device where the rename is allowed
    child = _dimorb(["calibrate", "--out", os.devnull], tmp_path)
    assert (child.returncode, child.stderr) == (0, f"wrote {os.devnull}\n".encode())
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert list(tmp_path.iterdir()) == []
