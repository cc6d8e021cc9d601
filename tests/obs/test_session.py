"""Tests for session activation and the logging configuration."""

import io
import logging

import pytest

from repro.obs import observe, runtime, setup_logging
from repro.obs.logconf import verbosity_to_level


class TestObserve:
    def test_slots_active_only_inside_block(self):
        assert runtime.TRACE is None
        with observe() as session:
            assert runtime.TRACE is session.recorder
            assert runtime.METRICS is session.metrics
        assert runtime.TRACE is None
        assert runtime.METRICS is None

    def test_partial_activation(self):
        with observe(trace=True, metrics=False) as session:
            assert session.recorder is not None
            assert session.metrics is None
            assert runtime.METRICS is None

    def test_nested_sessions_rejected(self):
        with observe():
            with pytest.raises(RuntimeError):
                with observe():
                    pass

    def test_deactivates_on_exception(self):
        with pytest.raises(RuntimeError):
            with observe():
                raise RuntimeError("boom")
        assert runtime.TRACE is None

    def test_manifest_reaches_recorder(self):
        with observe(manifest={"experiment": "x"}) as session:
            pass
        assert session.recorder.manifest["experiment"] == "x"

    def test_session_helpers(self):
        with observe() as session:
            session.recorder.emit("gw.lock_on", t=0.0)
        assert session.event_counts() == {"gw.lock_on": 1}

    def test_helpers_with_everything_disabled(self):
        with observe(trace=False, metrics=False) as session:
            pass
        assert session.event_counts() == {}


class TestLogging:
    def test_verbosity_mapping(self):
        assert verbosity_to_level(-1) == logging.ERROR
        assert verbosity_to_level(0) == logging.WARNING
        assert verbosity_to_level(1) == logging.INFO
        assert verbosity_to_level(2) == logging.DEBUG
        assert verbosity_to_level(5) == logging.DEBUG

    def test_handler_not_duplicated(self):
        stream = io.StringIO()
        root = setup_logging(0, stream=stream)
        before = len(root.handlers)
        setup_logging(1, stream=stream)
        assert len(root.handlers) == before

    def test_levels_filter_output(self):
        stream = io.StringIO()
        setup_logging(0, stream=stream)
        logger = logging.getLogger("repro.test_session")
        logger.info("hidden")
        logger.warning("shown")
        out = stream.getvalue()
        assert "hidden" not in out
        assert "shown" in out

    def test_verbose_shows_info(self):
        stream = io.StringIO()
        setup_logging(1, stream=stream)
        logging.getLogger("repro.test_session").info("visible")
        assert "visible" in stream.getvalue()

    def test_no_propagation_to_global_root(self):
        root = setup_logging(0, stream=io.StringIO())
        assert root.propagate is False
