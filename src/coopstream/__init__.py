"""Cooperative adaptive-bitrate streaming: simulator, schedulers, bounds."""

from . import bound, engine, harness, model, schedulers, traces, welfare
