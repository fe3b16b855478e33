"""The CLI's argument surface, pinned.

``fixtures/parser_surface.json`` was recorded from the commit *before*
``build_parser`` stopped repeating ``--schema/--dtd/--root/--xml`` and
``--dataset/--scale/--seed`` per command and started deriving
``choices`` from ``DATASETS``, ``known_backends()``, ``PRESETS`` and
``ALGORITHMS`` — so that de-duplication is provably behaviour-free:
every subcommand still has exactly the same option strings, defaults,
choices (in order), ``required`` and ``nargs``. Help text is not pinned.

Re-record (only when a flag is *meant* to change) with::

    PYTHONPATH=<checkout>/src python tests/test_parser_surface.py
"""

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

FIXTURE = Path(__file__).parent / "fixtures" / "parser_surface.json"


def parser_surface() -> dict:
    """subcommand -> {option strings (or positional dest) -> facts}."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    surface = {}
    for command, sub in subparsers.choices.items():
        options = {}
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            key = " ".join(action.option_strings) or action.dest
            options[key] = {
                "default": action.default,
                "choices": (None if action.choices is None
                            else list(action.choices)),
                "required": action.required,
                "nargs": action.nargs,
            }
        surface[command] = options
    return surface


def test_every_subcommand_keeps_its_flags_defaults_and_choices():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    current = json.loads(json.dumps(parser_surface()))
    assert sorted(current) == sorted(recorded)
    for command, options in recorded.items():
        assert current[command] == options, command


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(parser_surface(), indent=1,
                                  sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {FIXTURE}")
