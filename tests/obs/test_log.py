"""Tests for the CLI's verbosity-aware structured logger."""

import pytest

from repro.obs.log import configure, get_logger


@pytest.fixture(autouse=True)
def _restore_level():
    yield
    configure()  # back to the default (info) for other tests


class TestDefaultLevel:
    def test_info_and_result_on_stdout(self, capsys):
        configure()
        logger = get_logger("t")
        logger.info("progress %d", 7)
        logger.result("table")
        captured = capsys.readouterr()
        assert "progress 7\n" in captured.out
        assert "table\n" in captured.out
        assert captured.err == ""

    def test_debug_suppressed(self, capsys):
        configure()
        get_logger("t").debug("hidden")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""


class TestVerbose:
    def test_debug_on_stderr_with_component(self, capsys):
        configure(verbose=True)
        get_logger("sim").debug("x=%d", 3)
        captured = capsys.readouterr()
        assert captured.err == "[sim] x=3\n"
        assert captured.out == ""


class TestQuiet:
    def test_info_suppressed_results_kept(self, capsys):
        configure(quiet=True)
        logger = get_logger("t")
        logger.info("progress")
        logger.result("table")
        captured = capsys.readouterr()
        assert "progress" not in captured.out
        assert "table\n" in captured.out

    def test_quiet_beats_verbose(self, capsys):
        configure(verbose=True, quiet=True)
        logger = get_logger("t")
        logger.debug("hidden")
        logger.info("hidden too")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""

    def test_warning_and_error_always_shown(self, capsys):
        configure(quiet=True)
        logger = get_logger("t")
        logger.warning("heads up")
        logger.error("boom")
        captured = capsys.readouterr()
        assert "warning: heads up\n" in captured.err
        assert "error: boom\n" in captured.err
