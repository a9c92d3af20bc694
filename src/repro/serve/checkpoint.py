"""Deterministic engine checkpoints with a JSON round trip.

A checkpoint captures a table-engine run mid-flight -- the interaction
counter, the encoded state vector (compiled) or count vector (counts), the
window-sizing state, and the PCG64 bit-generator state -- wrapped with
enough provenance to refuse wrong resumes: the engine tag, the protocol
name and population size, and a sha256 digest of the run's canonical
:class:`~repro.engine.run_config.RunConfig`.

The hard guarantee (enforced by ``tests/serve/test_checkpoint.py`` and the
property suite) is **bit-identity**: a run checkpointed at any
``check_interval`` boundary and resumed in a fresh process produces the
same :class:`~repro.engine.results.SimulationResult`, the same final state
vector, and the same final generator state as the uninterrupted run.  The
engines make this possible by exposing ``checkpoint_state()`` /
``restore_checkpoint_state()`` (which consume no randomness) and an
``on_check`` hook that fires exactly at the boundaries where ``run_until``
is about to continue -- capturing anywhere else would desynchronize the
adaptive window sizing and with it the random stream.

Format: ``repro.engine-checkpoint/v1`` -- one indented, key-sorted JSON
document, written atomically (temp file + ``os.replace``).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.engine.run_config import RunConfig, make_simulation

#: Format tag embedded in checkpoint files so loaders reject foreign JSON.
CHECKPOINT_FORMAT = "repro.engine-checkpoint/v1"


class CheckpointError(ValueError):
    """A checkpoint cannot be captured, parsed, or applied."""


def canonical_json(payload) -> str:
    """Key-sorted, whitespace-free JSON -- the digest input form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_digest(config: RunConfig) -> str:
    """sha256 over the canonical provenance dict of a :class:`RunConfig`.

    Two configs share a digest exactly when their ``to_dict()`` provenance
    matches, so a checkpoint refuses to resume under a different engine,
    stop condition, seed, cap, or adversary spec.  (``jobs`` is part of the
    dict too: it does not change results, but a digest that over-rejects is
    safe and keeps the rule simple.  ``trial_batch`` must be: ``1`` and larger
    values run different streams.)
    """
    return hashlib.sha256(canonical_json(config.to_dict()).encode("utf-8")).hexdigest()


def checkpoint_unsupported_reason(config: RunConfig) -> Optional[str]:
    """Why runs under this config cannot checkpoint (``None`` when they can).

    Mirrors the engine-side guards: checkpointing covers exactly the state
    the table engines own.  Anything that keeps run state outside the
    engine -- per-trial fault campaigns, byzantine overlays, non-uniform
    schedulers, the loop engine's arbitrary protocol code -- is refused up
    front rather than resumed wrongly.
    """
    if config.engine not in ("compiled", "counts"):
        return (
            f"engine {config.engine!r} is not checkpointable: its random "
            "stream flows through arbitrary per-transition protocol code"
        )
    if config.faults is not None and getattr(config.faults, "events", ()):
        return "fault campaigns mutate configurations outside the engine checkpoint"
    if config.byzantine is not None:
        return "byzantine overlays re-tag agents outside the engine checkpoint"
    if config.scheduler is not None and getattr(config.scheduler, "kind", None) != "uniform":
        return "non-uniform schedulers carry position outside the generator state"
    if config.trial_batch > 1:
        return "trial-batched engines advance many trials per window"
    return None


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Write-then-rename so readers never observe a torn file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return path


@dataclass(frozen=True)
class EngineCheckpoint:
    """One mid-run engine snapshot plus the provenance to validate a resume.

    ``state`` is the engine's own ``checkpoint_state()`` dict (already
    JSON-able, including the big-int PCG64 state); the wrapper adds the
    identity checks :func:`restore_simulation` enforces.
    """

    engine: str
    protocol: str
    n: int
    interactions: int
    config_digest: str
    state: Dict

    def to_dict(self) -> Dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "engine": self.engine,
            "protocol": self.protocol,
            "n": self.n,
            "interactions": self.interactions,
            "config_digest": self.config_digest,
            "state": self.state,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "EngineCheckpoint":
        tag = payload.get("format")
        if tag != CHECKPOINT_FORMAT:
            raise CheckpointError(f"not an engine checkpoint (format={tag!r})")
        try:
            return cls(
                engine=payload["engine"],
                protocol=payload["protocol"],
                n=int(payload["n"]),
                interactions=int(payload["interactions"]),
                config_digest=payload["config_digest"],
                state=dict(payload["state"]),
            )
        except (KeyError, TypeError) as error:
            raise CheckpointError(f"malformed engine checkpoint: {error}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EngineCheckpoint":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise CheckpointError(f"unreadable engine checkpoint: {error}") from None
        if not isinstance(payload, dict):
            raise CheckpointError("not an engine checkpoint (not a JSON object)")
        return cls.from_dict(payload)

    def save(self, path: Union[str, Path]) -> Path:
        return atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "EngineCheckpoint":
        path = Path(path)
        if not path.exists():
            raise CheckpointError(f"no checkpoint at {path}")
        return cls.from_json(path.read_text(encoding="utf-8"))


def capture_checkpoint(simulation, config: RunConfig) -> EngineCheckpoint:
    """Snapshot a live table-engine simulation under its run config."""
    reason = checkpoint_unsupported_reason(config)
    if reason is not None:
        raise CheckpointError(f"run is not checkpointable: {reason}")
    try:
        state = simulation.checkpoint_state()
    except (AttributeError, RuntimeError) as error:
        raise CheckpointError(f"engine refused the checkpoint: {error}") from None
    return EngineCheckpoint(
        engine=state["engine"],
        protocol=simulation.protocol.name,
        n=simulation.protocol.n,
        interactions=int(state["interactions"]),
        config_digest=config_digest(config),
        state=state,
    )


def restore_simulation(protocol, checkpoint: EngineCheckpoint, config: RunConfig, compiled=None):
    """Rebuild the engine a checkpoint was captured from, mid-run.

    Refuses (``CheckpointError``) when the checkpoint's RunConfig digest,
    engine, protocol name, or population size disagrees with what the
    caller is about to resume -- resuming under a different plan would
    silently produce a *valid-looking but wrong* artifact, the one failure
    mode a resumable service must not have.
    """
    digest = config_digest(config)
    if checkpoint.config_digest != digest:
        raise CheckpointError(
            "checkpoint RunConfig digest mismatch: checkpoint was captured "
            f"under {checkpoint.config_digest[:16]}..., resume requested under "
            f"{digest[:16]}... (engine/stop/seed/caps must match exactly)"
        )
    if checkpoint.engine != config.engine:
        raise CheckpointError(
            f"checkpoint engine {checkpoint.engine!r} != config engine {config.engine!r}"
        )
    if checkpoint.protocol != protocol.name:
        raise CheckpointError(
            f"checkpoint is for protocol {checkpoint.protocol!r}, got {protocol.name!r}"
        )
    if checkpoint.n != protocol.n:
        raise CheckpointError(
            f"checkpoint population {checkpoint.n} != protocol population {protocol.n}"
        )
    try:
        if config.engine == "counts":
            from repro.engine.counts_simulation import CountsSimulation

            simulation = CountsSimulation(
                protocol,
                counts=np.asarray(checkpoint.state["counts"], dtype=np.int64),
                rng=0,
                compiled=compiled,
            )
        else:
            from repro.engine.batch_simulation import BatchSimulation

            simulation = BatchSimulation(
                protocol,
                indices=BatchSimulation.decode_state_vector(checkpoint.state["indices"]),
                rng=0,
                compiled=compiled,
            )
        simulation.restore_checkpoint_state(checkpoint.state)
    except (KeyError, ValueError, RuntimeError) as error:
        raise CheckpointError(f"cannot apply checkpoint: {error}") from None
    return simulation


def resume_run(protocol, checkpoint: EngineCheckpoint, config: RunConfig, compiled=None):
    """Restore from a checkpoint and run the plan to completion."""
    simulation = restore_simulation(protocol, checkpoint, config, compiled=compiled)
    return simulation.run(config)


__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "EngineCheckpoint",
    "atomic_write_text",
    "canonical_json",
    "capture_checkpoint",
    "checkpoint_unsupported_reason",
    "config_digest",
    "restore_simulation",
    "resume_run",
]
