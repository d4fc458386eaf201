"""Documentation consistency: DESIGN.md's experiment index, the
experiment registry, and the benchmark files must agree, and the docs
cite only commands, options and files that exist."""

import argparse
import pathlib
import re

import numpy as np
import pytest

from repro.cli import build_parser
from repro.experiments import all_experiments
from repro.net.medium import Medium
from repro.net.network import NetworkConfig
from repro.sim.engine import Environment

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class TestDesignDocIndex:
    @pytest.fixture(scope="class")
    def design_text(self):
        return (REPO_ROOT / "DESIGN.md").read_text()

    def test_every_registered_experiment_appears_in_design_md(self, design_text):
        for experiment_id in all_experiments():
            assert re.search(
                rf"\|\s*{experiment_id}\s*\|", design_text
            ), f"{experiment_id} missing from DESIGN.md's experiment index"

    def test_every_design_bench_target_exists(self, design_text):
        for match in re.finditer(r"`benchmarks/(bench_\w+\.py)`", design_text):
            bench = REPO_ROOT / "benchmarks" / match.group(1)
            assert bench.exists(), f"{match.group(1)} referenced but missing"


class TestBenchCoverage:
    def test_every_experiment_has_a_bench(self):
        benches = " ".join(
            path.read_text()
            for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")
        )
        for experiment_id in all_experiments():
            assert f'"{experiment_id}"' in benches, (
                f"no benchmark invokes experiment {experiment_id}"
            )

    def test_every_bench_is_a_pytest_test(self):
        for path in (REPO_ROOT / "benchmarks").glob("bench_*.py"):
            text = path.read_text()
            assert "def test_bench_" in text, f"{path.name} has no test function"


class TestExperimentsDoc:
    def test_every_experiment_appears_in_experiments_md(self):
        text = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for experiment_id in all_experiments():
            assert re.search(
                rf"(^|\|\s*|#+\s+){experiment_id}\b", text, re.MULTILINE
            ), f"{experiment_id} missing from EXPERIMENTS.md"


#: The documents a reader follows to build, run and verify the repo.
CITING_DOCS = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "CONTRIBUTING.md",
    ".claude/skills/verify/SKILL.md",
)

#: The benchmark records.  Their notes cite commands and paths too, but
#: name members as they were when measured, so no member check reads them.
BENCH_RECORDS = tuple(sorted(path.name for path in REPO_ROOT.glob("BENCH_*.json")))

#: ``repro <command>`` as a shell line or prose cites it.
REPRO_COMMAND = re.compile(r"(?<![\w/.-])repro ([a-z][a-z-]*)")

#: Where a cited command ends: a closing code span or string quote, a
#: shell comment, pipe, list or redirection, or the next cited command.
COMMAND_END = re.compile(r"[`\"|;&>]|\s#|" + REPRO_COMMAND.pattern)

#: A long option as a command line spells it.
LONG_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")

#: A repository path under one of the code trees.
REPO_PATH = re.compile(
    r"(?<![\w/.-])((?:src|tools|benchmarks|examples|tests|perf)/[\w./*-]*[\w*])"
)


#: ``NetworkConfig(<field>=`` as a doc cites a config field.
CONFIG_CALL = re.compile(r"\bNetworkConfig\(\s*(\w+)\s*=")

#: ``NetworkConfig.<field>`` or ``Medium.<name>``.
CITED_MEMBER = re.compile(r"\b(NetworkConfig|Medium)\.(\w+)")


def _subcommands():
    """``build_parser()``'s subcommand parsers, keyed by name."""
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("build_parser() has no subcommands")


def _command_options(parser, words):
    """The long options of ``parser``, and of the nested subcommand that
    the first of ``words`` names, if it names one."""
    options = set()
    nested = None
    for action in parser._actions:
        options.update(flag for flag in action.option_strings if flag.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            nested = action.choices
    if nested is not None and words and words[0] in nested:
        options |= _command_options(nested[words[0]], words[1:])
    return options


def _cited_commands(text):
    """``(command, rest)`` for each cited ``repro <command>``, where
    ``rest`` runs to the end of that command: on its line, or on the
    next while a line ends in a backslash."""
    for line in re.sub(r"\\[ \t]*\n", " ", text).splitlines():
        for match in REPRO_COMMAND.finditer(line):
            yield match.group(1), COMMAND_END.split(line[match.end():], 1)[0]


class TestDocsCiteWhatExists:
    @pytest.mark.parametrize("doc", CITING_DOCS + BENCH_RECORDS)
    def test_every_cited_repro_command_exists(self, doc):
        commands = _subcommands()
        text = (REPO_ROOT / doc).read_text()
        cited = set(REPRO_COMMAND.findall(text))
        assert not cited - set(commands), (
            f"{doc} cites repro subcommands that do not exist: "
            f"{sorted(cited - set(commands))}"
        )

    @pytest.mark.parametrize("doc", CITING_DOCS + BENCH_RECORDS)
    def test_every_cited_option_belongs_to_its_command(self, doc):
        commands = _subcommands()
        text = (REPO_ROOT / doc).read_text()
        stale = sorted(
            f"repro {command} {flag}"
            for command, rest in _cited_commands(text)
            if command in commands
            for flag in LONG_FLAG.findall(rest)
            if flag not in _command_options(commands[command], rest.split())
        )
        assert not stale, f"{doc} cites options its commands lack: {stale}"

    @pytest.mark.parametrize("doc", CITING_DOCS + BENCH_RECORDS)
    def test_every_cited_path_exists(self, doc):
        text = (REPO_ROOT / doc).read_text()
        missing = sorted(
            path
            for path in set(REPO_PATH.findall(text))
            if not any(REPO_ROOT.glob(path))
        )
        assert not missing, f"{doc} cites paths that do not exist: {missing}"

    @pytest.mark.parametrize("doc", CITING_DOCS)
    def test_every_cited_config_field_and_medium_member_exists(self, doc):
        # An instance of each, so instance attributes count too.
        owners = {
            "NetworkConfig": NetworkConfig(),
            "Medium": Medium(
                Environment(),
                np.zeros((2, 2)),
                0.0,
                np.ones(2),
                lambda station, now: True,
                lambda station: None,
            ),
        }
        text = (REPO_ROOT / doc).read_text()
        cited = [("NetworkConfig", name) for name in CONFIG_CALL.findall(text)]
        cited += CITED_MEMBER.findall(text)
        missing = sorted(
            f"{owner}.{name}"
            for owner, name in set(cited)
            if not hasattr(owners[owner], name)
        )
        assert not missing, f"{doc} cites members that do not exist: {missing}"
