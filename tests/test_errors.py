"""The error contract: every exception class orchardlab defines derives
from `OrchardError`, and the CLI turns each into exit 1 (exit 2 for
`VerificationFailure`) with a one-line message."""

import importlib
import inspect
import pkgutil

import pytest

import orchardlab
from orchardlab import cli
from orchardlab.constructions import NoSqrtMinusOne, SingularForm
from orchardlab.errors import OrchardError, VerificationFailure
from orchardlab.incidence import EqualPlanes


def defined_exceptions():
    for info in pkgutil.iter_modules(orchardlab.__path__):
        module = importlib.import_module(f"orchardlab.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and issubclass(cls, Exception):
                yield cls


def test_every_exception_derives_from_the_root():
    found = set(defined_exceptions())
    assert {VerificationFailure, EqualPlanes, SingularForm, NoSqrtMinusOne,
            cli.UsageError} <= found
    assert [c.__qualname__ for c in found if not issubclass(c, OrchardError)] == []


@pytest.mark.parametrize("exc", [EqualPlanes, SingularForm, NoSqrtMinusOne])
def test_package_error_exit_code(monkeypatch, capsys, exc):
    def boom(args):
        raise exc("forced")

    monkeypatch.setattr(cli, "cmd_lemma_suite", boom)
    assert cli.main(["lemma-suite"]) == 1
    assert capsys.readouterr().err == "error: forced\n"
