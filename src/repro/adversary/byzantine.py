"""Persistent Byzantine adversaries as a compiled-table overlay.

The fault campaigns of :mod:`repro.adversary.campaign` are *transient*: they
corrupt states at pinned interaction counts and then watch the protocol
recover.  The paper's self-stabilization guarantees are only interesting
against adversaries that *stay* hostile, so this module adds a persistent
mode: a :class:`ByzantineSpec` on :class:`~repro.engine.run_config.RunConfig`
marks a fraction ``f`` of agents as permanently adversarial, each running a
hostile transition table for the rest of the run.

Implementation: an extra state *tag* in the compiled encoding.  With ``S``
base states and ``T`` tags, the overlay is a fresh
:class:`~repro.engine.compiled.CompiledProtocol` over ``T * S`` states where
index ``tag * S + s`` means "an agent whose underlying base state is ``s``,
behaving per ``tag``".  Tag 0 is honest (so honest agents keep their base
indices unchanged), and the tag-0/tag-0 block of the extended table *is* the
base table.  Because the overlay is just another compiled table, all three
engines honour it with the same machinery they already have: the compiled
engine swaps its table and re-tags its index array, the counts engine widens
its count vector to ``T * S`` columns, and the loop engine routes
interactions involving tagged agents through the table (honest pairs still
call the protocol's own ``transition``).

Strategies
----------
``worst_case``
    The worst-case responder of the tolerance literature: in every
    interaction the Byzantine agent *presents* the claimed state that
    maximizes the probability of changing its honest partner's state (ties
    broken toward the smallest state index), while its own recorded state
    stays frozen.  Byzantine/Byzantine interactions are null.
``random_reply``
    The Byzantine agent presents a uniformly random claimed state each
    interaction (its own state again frozen).  The overlay stores the exact
    outcome *mixture* per honest partner -- duplicate outcomes across claims
    are merged into one branch -- so the table stays small for protocols
    whose transitions collapse many claims to few results.
``cheat_then_punish``
    The abort-flow shape from game-theoretic protocol analyses: the agent
    *cooperates* (runs the honest table, tag 1) until it participates in a
    null interaction -- evidence the population is quiescing -- then flips
    permanently to a *punish* tag (tag 2) and plays ``worst_case`` forever.
    The flip itself is a table transition, so silence detection remains
    exact: a configuration with a cooperating cheater is never silent.

Stop semantics
--------------
Stop conditions are evaluated on the *honest* sub-population: the extended
histogram is sliced to its tag-0 block before the base protocol's predicates
see it (agreement/validity among honest agents, the standard Byzantine
fault-tolerance convention).  ``silent`` is the exception -- it uses the
extended table's ``changes`` mask directly, which is exact.

Selection determinism
---------------------
The adversarial agent set must be *bit-identical* across engines and
``--jobs`` layouts.  Selection therefore consumes a dedicated side stream
derived from the trial generator's ``SeedSequence`` with an explicit spawn
key (:func:`~repro.engine.rng.batch_seed_sequence`), never the trial stream
itself: one ``multivariate_hypergeometric`` draw over the initial state
histogram fixes *how many* agents of each base state turn Byzantine (all the
counts engine needs), and the identity engines then mark the lowest agent
ids within each state -- a pure function of the start configuration and the
draw, independent of engine and process layout.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.engine.compiled import CompiledProtocol, _as_raw_tables
from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import batch_seed_sequence
from repro.engine.state import AgentState
from repro.telemetry import metrics as _metrics

#: Hostile-table strategies understood by :class:`ByzantineSpec`.
BYZANTINE_STRATEGIES = ("worst_case", "random_reply", "cheat_then_punish")

#: The honest tag; honest agents keep their base state indices.
HONEST_TAG = 0

#: ``SimulationResult.extra`` keys written by :meth:`ByzantineOverlay.annotate`.
BYZANTINE_STRATEGY_KEY = "byzantine_strategy"
BYZANTINE_COUNT_KEY = "byzantine_count"
BYZANTINE_STATE_COUNTS_KEY = "byzantine_state_counts"
BYZANTINE_AGENTS_KEY = "byzantine_agents"
BYZANTINE_DIGEST_KEY = "byzantine_selection_digest"

#: Agent-id lists above this size are dropped from ``extra`` (the digest and
#: per-state counts still identify the selection).
_ANNOTATE_AGENT_LIMIT = 4096

#: Branch cap for the overlay table (``random_reply`` mixtures can in the
#: worst case need one branch per distinct outcome).
_MAX_OVERLAY_BRANCHES = 64

#: Side-stream id for selection randomness (the trial-batch machinery uses
#: stream 0 of the same namespace; byzantine runs are never trial-batched,
#: but a distinct id keeps the streams disjoint by construction).
_SELECTION_STREAM = 1


class ByzantineOverlayError(RuntimeError):
    """Raised when a protocol cannot support the requested overlay."""


@dataclass(frozen=True)
class ByzantineSpec:
    """Declarative, serializable description of a persistent Byzantine mode.

    Carried on :class:`~repro.engine.run_config.RunConfig` (field
    ``byzantine``) so the adversary flows from the CLI through the harness
    into all three engines and into artifact provenance, exactly like
    :class:`~repro.adversary.schedulers.SchedulerSpec`.

    Attributes
    ----------
    fraction:
        Fraction ``f`` of the population turned adversarial, in ``(0, 1)``.
        The realized count is ``max(1, min(n - 1, round(f * n)))`` -- at
        least one adversary, and at least one honest agent to measure.
    strategy:
        One of :data:`BYZANTINE_STRATEGIES` (see the module docstring).
    """

    fraction: float
    strategy: str = "worst_case"

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction < 1.0:
            raise ValueError(
                f"byzantine fraction must be in (0, 1), got {self.fraction}"
            )
        if self.strategy not in BYZANTINE_STRATEGIES:
            raise ValueError(
                f"unknown byzantine strategy {self.strategy!r}, "
                f"expected one of {BYZANTINE_STRATEGIES}"
            )

    def count(self, n: int) -> int:
        """Number of adversarial agents in a population of size ``n``."""
        return max(1, min(n - 1, int(round(self.fraction * n))))

    def to_dict(self) -> Dict:
        """JSON-able form (stable schema)."""
        return {"fraction": self.fraction, "strategy": self.strategy}

    @classmethod
    def from_dict(cls, payload: Dict) -> "ByzantineSpec":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        unknown = set(payload) - {"fraction", "strategy"}
        if unknown:
            raise ValueError(f"unknown ByzantineSpec fields: {sorted(unknown)}")
        return cls(
            fraction=payload["fraction"],
            strategy=payload.get("strategy", "worst_case"),
        )

    def describe(self) -> str:
        """Short human-readable summary (used by the CLI and reports)."""
        return f"byzantine ({self.fraction:.0%} {self.strategy})"


class TaggedState(AgentState):
    """A base protocol state wrapped with a behaviour tag.

    Exemplar state of the overlay's extended encoding.  Attribute reads fall
    through to the wrapped base state so field-inspecting code (predicates,
    ``state_mask`` lambdas, the CLI's summaries) keeps working on tagged
    states.
    """

    def __init__(self, tag: int, base: AgentState):
        self.tag = int(tag)
        self.base = base

    def signature(self):
        return ("byzantine", self.tag, self.base.signature())

    def assign(self, exemplar: "TaggedState") -> None:
        """In-place update from an exemplar (the loop engine's mutation path)."""
        self.tag = exemplar.tag
        self.base = exemplar.base.clone()

    def __getattr__(self, name: str):
        if name.startswith("_") or name in ("tag", "base"):
            raise AttributeError(name)
        return getattr(object.__getattribute__(self, "base"), name)


class ByzantineProtocolView(PopulationProtocol):
    """The overlay's protocol facade over :class:`TaggedState` populations.

    Serves two roles: it is the ``protocol`` of the extended
    :class:`CompiledProtocol` (supplying ``state_signature`` for tagged
    states), and it is what the loop engine runs after installation --
    honest/honest interactions delegate to the base protocol's own
    ``transition``, anything involving a tagged agent goes through the
    extended table, and the stop predicates implement the honest-scope
    semantics described in the module docstring.
    """

    def __init__(self, base_protocol: PopulationProtocol, spec: ByzantineSpec):
        super().__init__(base_protocol.n)
        self.base_protocol = base_protocol
        self.spec = spec
        self.name = f"{base_protocol.name}+{spec.strategy}"
        self._overlay: Optional["ByzantineOverlay"] = None

    # -- configuration construction -------------------------------------------

    def initial_state(self, agent_id: int, rng: np.random.Generator) -> AgentState:
        return TaggedState(HONEST_TAG, self.base_protocol.initial_state(agent_id, rng))

    # -- dynamics ---------------------------------------------------------------

    def transition(self, initiator, responder, rng: np.random.Generator) -> None:
        if initiator.tag == HONEST_TAG and responder.tag == HONEST_TAG:
            self.base_protocol.transition(initiator.base, responder.base, rng)
            return
        compiled = self._overlay.compiled
        row = compiled.encode_state(initiator) * compiled.num_states + compiled.encode_state(
            responder
        )
        if not compiled.changes[row]:
            return
        if compiled.branch_cumprob is None:
            out_i = int(compiled.result_initiator[row])
            out_j = int(compiled.result_responder[row])
        else:
            branch = int(
                np.searchsorted(compiled.branch_cumprob[row], rng.random(), side="right")
            )
            branch = min(branch, compiled.branch_cumprob.shape[1] - 1)
            out_i = int(compiled.result_initiator[row, branch])
            out_j = int(compiled.result_responder[row, branch])
        initiator.assign(compiled.states[out_i])
        responder.assign(compiled.states[out_j])

    # -- predicates (honest scope) ----------------------------------------------

    def _extended_counts(self, configuration: Configuration) -> np.ndarray:
        compiled = self._overlay.compiled
        indices = np.fromiter(
            (compiled.encode_state(state) for state in configuration),
            dtype=np.int64,
            count=len(configuration),
        )
        return np.bincount(indices, minlength=compiled.num_states)

    def _counts_stop(self, kind: str, configuration: Configuration) -> bool:
        # Route through the overlay's counts-predicate so the loop engine
        # evaluates the *same* honest-scope function as the compiled and
        # counts engines.  (The base protocol's configuration predicates may
        # reference the full population size -- e.g. "all n ranks distinct" --
        # which an honest sub-population can never satisfy; the counts form
        # is the scale-free convention all engines share.)
        return bool(self._overlay.resolve_stop(kind)(self._extended_counts(configuration)))

    def is_correct(self, configuration: Configuration) -> bool:
        return self._counts_stop("correct", configuration)

    def has_stabilized(self, configuration: Configuration) -> bool:
        return self._counts_stop("stabilized", configuration)

    def is_silent(self, configuration: Configuration) -> bool:
        compiled = self._overlay.compiled
        return compiled.counts_silent(self._extended_counts(configuration))

    # -- compiled-engine hooks ---------------------------------------------------

    def state_signature(self, state: AgentState):
        if isinstance(state, TaggedState):
            return ("byzantine", state.tag, self.base_protocol.state_signature(state.base))
        return self.base_protocol.state_signature(state)

    def enumerate_states(self):
        return None if self._overlay is None else self._overlay.compiled.states


class ByzantineOverlay:
    """The installed form of a :class:`ByzantineSpec` for one run.

    Holds the extended :class:`CompiledProtocol`, the honest-scope stop
    resolution, and the deterministic agent-selection helpers shared by the
    three engines.
    """

    def __init__(
        self,
        spec: ByzantineSpec,
        base: CompiledProtocol,
        compiled: CompiledProtocol,
        view: ByzantineProtocolView,
        tags: int,
        initial_tag: int,
    ):
        self.spec = spec
        self.base = base
        self.compiled = compiled
        self.view = view
        self.tags = tags
        self.initial_tag = initial_tag
        self.num_base_states = base.num_states
        #: Per-base-state adversary histogram fixed by :meth:`draw_marking`.
        self.marked_counts: Optional[np.ndarray] = None
        #: Sorted adversarial agent ids (identity engines only).
        self.marked_ids: Optional[np.ndarray] = None

    # -- deterministic selection -------------------------------------------------

    def draw_marking(
        self, selection_rng: np.random.Generator, base_counts: np.ndarray
    ) -> np.ndarray:
        """Fix how many agents of each base state turn Byzantine.

        One ``multivariate_hypergeometric`` draw over the initial histogram;
        every engine makes exactly this call with the same side-stream
        generator, so the per-state marking is bit-identical everywhere.
        """
        base_counts = np.asarray(base_counts, dtype=np.int64)
        total = int(base_counts.sum())
        marked = selection_rng.multivariate_hypergeometric(
            base_counts, self.spec.count(total)
        ).astype(np.int64)
        self.marked_counts = marked
        _metrics.record_byzantine_install(int(marked.sum()))
        return marked

    def mark_indices(self, indices: np.ndarray, marked_counts: np.ndarray) -> np.ndarray:
        """Re-tag an encoded configuration, marking lowest ids per state.

        Within each base state the ``marked_counts[s]`` agents with the
        smallest ids become adversarial -- a pure function of the start
        configuration and the draw, identical for the loop and compiled
        engines at matched seeds.
        """
        stride = self.num_base_states
        counts = np.bincount(indices, minlength=stride)
        order = np.argsort(indices, kind="stable")
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        position = np.arange(len(indices)) - np.repeat(starts, counts)
        quota = np.repeat(marked_counts, counts)
        marked = np.sort(order[position < quota])
        extended = indices.astype(np.int32, copy=True)
        extended[marked] += np.int32(self.initial_tag * stride)
        self.marked_ids = marked
        return extended

    # -- honest-scope stop resolution ---------------------------------------------

    def honest_counts(self, counts: np.ndarray) -> np.ndarray:
        """Slice an extended histogram down to its honest (tag-0) block."""
        return counts[: self.num_base_states]

    def resolve_stop(self, kind: str):
        """Counts-predicate on the extended histogram for one stop kind.

        Preference order mirrors :func:`repro.engine.core.resolve_stop`: the
        base protocol's ``compiled_predicates`` fast path over the honest
        slice; exact extended-table silence; otherwise the decoded honest
        configuration through the slow predicate.  It stays a function of
        its own because its silence test runs on the extended table while
        its other predicates see only the honest slice.
        """
        base_protocol = self.view.base_protocol
        fast = base_protocol.compiled_predicates().get(kind)
        if fast is not None:
            base = self.base
            return lambda counts: fast(self.honest_counts(counts), base)
        if kind == "silent":
            return self.compiled.counts_silent
        slow = {
            "correct": base_protocol.is_correct,
            "stabilized": base_protocol.has_stabilized,
        }[kind]

        def decoded(counts: np.ndarray) -> bool:
            honest = self.honest_counts(counts)
            configuration = Configuration.from_state_indices(
                self.base.states, np.repeat(np.arange(len(honest)), honest)
            )
            return slow(configuration)

        return decoded

    # -- provenance ---------------------------------------------------------------

    def annotate(self, result) -> None:
        """Record the selection in ``result.extra`` (cross-engine comparable)."""
        marked = self.marked_counts
        result.extra[BYZANTINE_STRATEGY_KEY] = self.spec.strategy
        result.extra[BYZANTINE_COUNT_KEY] = int(marked.sum())
        result.extra[BYZANTINE_STATE_COUNTS_KEY] = [int(c) for c in marked]
        digest_source = marked.astype(np.int64).tobytes()
        if self.marked_ids is not None:
            digest_source += self.marked_ids.astype(np.int64).tobytes()
            if len(self.marked_ids) <= _ANNOTATE_AGENT_LIMIT:
                result.extra[BYZANTINE_AGENTS_KEY] = [int(i) for i in self.marked_ids]
        result.extra[BYZANTINE_DIGEST_KEY] = int(zlib.crc32(digest_source))


def byzantine_selection_rng(rng: np.random.Generator) -> np.random.Generator:
    """The dedicated selection generator derived from a trial generator.

    An explicit-spawn-key sibling of the trial's ``SeedSequence`` (see
    :func:`~repro.engine.rng.batch_seed_sequence`): a pure function of the
    trial seed, so every engine derives the same stream, and disjoint from
    the trial stream itself, so installing the overlay never perturbs the
    run's transition randomness.
    """
    seed_seq = getattr(rng.bit_generator, "seed_seq", None)
    if seed_seq is None:
        raise ByzantineOverlayError(
            "byzantine selection needs a SeedSequence-backed generator; "
            "seed the run with an int or a default_rng generator"
        )
    return np.random.default_rng(batch_seed_sequence(seed_seq, stream=_SELECTION_STREAM))


# -- overlay table construction -----------------------------------------------------


def _block_rows(num_base: int, num_ext: int, tag_i: int, tag_j: int) -> np.ndarray:
    """Extended-table row indices of one ``(tag_i, tag_j)`` block, base order."""
    a = np.repeat(np.arange(num_base, dtype=np.int64), num_base)
    b = np.tile(np.arange(num_base, dtype=np.int64), num_base)
    return (tag_i * num_base + a) * num_ext + (tag_j * num_base + b)


def _null_tables(num_ext: int, branches: int) -> Dict[str, np.ndarray]:
    """All-null extended raw tables (every entry maps to itself)."""
    idx = np.arange(num_ext, dtype=np.int64)
    initiator = np.repeat(
        np.repeat(idx, num_ext)[:, None], branches, axis=1
    )
    responder = np.repeat(np.tile(idx, num_ext)[:, None], branches, axis=1)
    probability = np.zeros((num_ext * num_ext, branches), dtype=np.float64)
    probability[:, 0] = 1.0
    changes = np.zeros(num_ext * num_ext, dtype=bool)
    return {
        "initiator": initiator,
        "responder": responder,
        "probability": probability,
        "changes": changes,
    }


def _damage_tables(raw: Dict[str, np.ndarray]):
    """Per-claim change probabilities and the worst-case claim per partner.

    ``resp_damage[c, b]`` is the probability that an honest responder in
    state ``b`` changes when the initiator presents ``c``;
    ``best_claim_responder[b]`` the damage-maximizing claim (argmax ties
    break toward the smallest claim).  Symmetrically for the initiator side.
    """
    num_base = raw["num_states"]
    a_grid = np.repeat(np.arange(num_base), num_base)
    b_grid = np.tile(np.arange(num_base), num_base)
    resp_damage = (
        (raw["probability"] * (raw["responder"] != b_grid[:, None]))
        .sum(axis=1)
        .reshape(num_base, num_base)
    )
    init_damage = (
        (raw["probability"] * (raw["initiator"] != a_grid[:, None]))
        .sum(axis=1)
        .reshape(num_base, num_base)
    )
    return (
        resp_damage,
        np.argmax(resp_damage, axis=0),
        init_damage,
        np.argmax(init_damage, axis=1),
    )


def _fill_base_block(ext: Dict[str, np.ndarray], raw: Dict[str, np.ndarray], num_ext: int):
    """Copy the base table into the honest/honest block (indices unchanged)."""
    num_base = raw["num_states"]
    branches = raw["initiator"].shape[1]
    rows = _block_rows(num_base, num_ext, HONEST_TAG, HONEST_TAG)
    ext["initiator"][rows, :branches] = raw["initiator"]
    ext["initiator"][rows, branches:] = raw["initiator"][:, -1:]
    ext["responder"][rows, :branches] = raw["responder"]
    ext["responder"][rows, branches:] = raw["responder"][:, -1:]
    ext["probability"][rows] = 0.0
    ext["probability"][rows, :branches] = raw["probability"]
    ext["changes"][rows] = raw["changes"]


def _fill_worst_case_blocks(
    ext: Dict[str, np.ndarray],
    raw: Dict[str, np.ndarray],
    num_ext: int,
    byz_tag: int,
) -> None:
    """Fill the ``(byz_tag, honest)`` and ``(honest, byz_tag)`` blocks.

    The adversary presents the damage-maximizing claim, so the honest side's
    outcome branches come from the base row of ``(claim, partner)``; the
    adversary's own index never changes.
    """
    num_base = raw["num_states"]
    branches = raw["initiator"].shape[1]
    a_grid = np.repeat(np.arange(num_base), num_base)
    b_grid = np.tile(np.arange(num_base), num_base)
    resp_damage, best_resp_claim, init_damage, best_init_claim = _damage_tables(raw)

    rows = _block_rows(num_base, num_ext, byz_tag, HONEST_TAG)
    source = best_resp_claim[b_grid] * num_base + b_grid
    ext["initiator"][rows] = (byz_tag * num_base + a_grid)[:, None]
    ext["responder"][rows, :branches] = raw["responder"][source]
    ext["responder"][rows, branches:] = raw["responder"][source][:, -1:]
    ext["probability"][rows] = 0.0
    ext["probability"][rows, :branches] = raw["probability"][source]
    ext["changes"][rows] = resp_damage[best_resp_claim[b_grid], b_grid] > 0.0

    rows = _block_rows(num_base, num_ext, HONEST_TAG, byz_tag)
    source = a_grid * num_base + best_init_claim[a_grid]
    ext["initiator"][rows, :branches] = raw["initiator"][source]
    ext["initiator"][rows, branches:] = raw["initiator"][source][:, -1:]
    ext["responder"][rows] = (byz_tag * num_base + b_grid)[:, None]
    ext["probability"][rows] = 0.0
    ext["probability"][rows, :branches] = raw["probability"][source]
    ext["changes"][rows] = init_damage[a_grid, best_init_claim[a_grid]] > 0.0


def _worst_case_tables(raw: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    num_base = raw["num_states"]
    num_ext = 2 * num_base
    ext = _null_tables(num_ext, raw["initiator"].shape[1])
    _fill_base_block(ext, raw, num_ext)
    _fill_worst_case_blocks(ext, raw, num_ext, byz_tag=1)
    return ext


def _mixture_distributions(raw: Dict[str, np.ndarray]):
    """Honest-side outcome mixtures under a uniformly random claim.

    ``resp_dist[b, r]`` is the probability an honest responder in state ``b``
    ends in ``r`` when the claimed initiator state is uniform over the base
    space; ``init_dist[a, r]`` symmetrically for an honest initiator.
    """
    num_base = raw["num_states"]
    branches = raw["initiator"].shape[1]
    a_grid = np.repeat(np.arange(num_base), num_base)
    b_grid = np.tile(np.arange(num_base), num_base)
    weight = raw["probability"] / num_base
    resp_dist = np.zeros((num_base, num_base), dtype=np.float64)
    init_dist = np.zeros((num_base, num_base), dtype=np.float64)
    np.add.at(
        resp_dist,
        (np.repeat(b_grid[:, None], branches, axis=1), raw["responder"]),
        weight,
    )
    np.add.at(
        init_dist,
        (np.repeat(a_grid[:, None], branches, axis=1), raw["initiator"]),
        weight,
    )
    return resp_dist, init_dist


def _random_reply_tables(raw: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    num_base = raw["num_states"]
    num_ext = 2 * num_base
    resp_dist, init_dist = _mixture_distributions(raw)
    needed = max(
        raw["initiator"].shape[1],
        int((resp_dist > 0).sum(axis=1).max()),
        int((init_dist > 0).sum(axis=1).max()),
    )
    if needed > _MAX_OVERLAY_BRANCHES:
        raise ByzantineOverlayError(
            f"random_reply needs {needed} outcome branches per table entry "
            f"(cap {_MAX_OVERLAY_BRANCHES}); this protocol's transitions keep "
            "too many claims distinguishable -- use strategy='worst_case' or "
            "a smaller state space"
        )
    ext = _null_tables(num_ext, needed)
    _fill_base_block(ext, raw, num_ext)

    agents = np.arange(num_base, dtype=np.int64)
    for partner in range(num_base):
        outcomes = np.nonzero(resp_dist[partner] > 0)[0]
        probabilities = resp_dist[partner][outcomes]
        probabilities = probabilities / probabilities.sum()
        rows = (num_base + agents) * num_ext + partner
        ext["responder"][rows, : len(outcomes)] = outcomes
        ext["responder"][rows, len(outcomes):] = outcomes[-1]
        ext["probability"][rows] = 0.0
        ext["probability"][rows, : len(outcomes)] = probabilities
        ext["changes"][rows] = bool(np.any(outcomes != partner))

        outcomes = np.nonzero(init_dist[partner] > 0)[0]
        probabilities = init_dist[partner][outcomes]
        probabilities = probabilities / probabilities.sum()
        rows = partner * num_ext + (num_base + agents)
        ext["initiator"][rows, : len(outcomes)] = outcomes
        ext["initiator"][rows, len(outcomes):] = outcomes[-1]
        ext["probability"][rows] = 0.0
        ext["probability"][rows, : len(outcomes)] = probabilities
        ext["changes"][rows] = bool(np.any(outcomes != partner))
    return ext


def _cheat_then_punish_tables(raw: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    num_base = raw["num_states"]
    num_ext = 3 * num_base
    branches = raw["initiator"].shape[1]
    ext = _null_tables(num_ext, branches)
    _fill_base_block(ext, raw, num_ext)
    _fill_worst_case_blocks(ext, raw, num_ext, byz_tag=2)

    a_grid = np.repeat(np.arange(num_base), num_base)
    b_grid = np.tile(np.arange(num_base), num_base)
    null_entry = ~raw["changes"]
    flip_prob = np.zeros(branches, dtype=np.float64)
    flip_prob[0] = 1.0

    def fill_cooperate(tag_i: int, tag_j: int) -> None:
        """Cooperating cheaters run the base table under tag 1; on a null
        base interaction every cheating participant flips to the punish tag."""
        rows = _block_rows(num_base, num_ext, tag_i, tag_j)
        offset_i = num_base if tag_i == 1 else 0
        offset_j = num_base if tag_j == 1 else 0
        ext["initiator"][rows, :branches] = raw["initiator"] + offset_i
        ext["initiator"][rows, branches:] = (raw["initiator"] + offset_i)[:, -1:]
        ext["responder"][rows, :branches] = raw["responder"] + offset_j
        ext["responder"][rows, branches:] = (raw["responder"] + offset_j)[:, -1:]
        ext["probability"][rows] = 0.0
        ext["probability"][rows, :branches] = raw["probability"]
        flip_i = (2 * num_base + a_grid if tag_i == 1 else a_grid)[null_entry]
        flip_j = (2 * num_base + b_grid if tag_j == 1 else b_grid)[null_entry]
        ext["initiator"][rows[null_entry]] = flip_i[:, None]
        ext["responder"][rows[null_entry]] = flip_j[:, None]
        ext["probability"][rows[null_entry]] = flip_prob
        # Active pairs change by definition; null pairs change by flipping.
        ext["changes"][rows] = True

    fill_cooperate(1, HONEST_TAG)
    fill_cooperate(HONEST_TAG, 1)
    fill_cooperate(1, 1)
    return ext


_TABLE_BUILDERS = {
    "worst_case": (_worst_case_tables, 2),
    "random_reply": (_random_reply_tables, 2),
    "cheat_then_punish": (_cheat_then_punish_tables, 3),
}


def build_byzantine_overlay(
    protocol: PopulationProtocol,
    compiled: CompiledProtocol,
    spec: ByzantineSpec,
) -> ByzantineOverlay:
    """Build the extended table and its :class:`ByzantineOverlay` wrapper.

    Pure NumPy index arithmetic over the base table's raw form -- no
    transition is ever probed, so construction is ``O(T^2 S^2 B)`` array
    work regardless of how expensive the protocol's Python transition is.
    """
    raw = _as_raw_tables(compiled)
    builder, tags = _TABLE_BUILDERS[spec.strategy]
    ext = builder(raw)
    view = ByzantineProtocolView(protocol, spec)
    states: List[AgentState] = [
        TaggedState(tag, state.clone())
        for tag in range(tags)
        for state in compiled.states
    ]
    if ext["initiator"].shape[1] == 1:
        result_initiator = ext["initiator"][:, 0].astype(np.int32)
        result_responder = ext["responder"][:, 0].astype(np.int32)
        branch_cumprob = None
    else:
        result_initiator = ext["initiator"].astype(np.int32)
        result_responder = ext["responder"].astype(np.int32)
        branch_cumprob = np.minimum(np.cumsum(ext["probability"], axis=1), 1.0)
        branch_cumprob[:, -1] = 1.0
    extended = CompiledProtocol(
        protocol=view,
        states=states,
        result_initiator=result_initiator,
        result_responder=result_responder,
        branch_cumprob=branch_cumprob,
        changes=ext["changes"],
    )
    overlay = ByzantineOverlay(
        spec=spec,
        base=compiled,
        compiled=extended,
        view=view,
        tags=tags,
        initial_tag=1,
    )
    view._overlay = overlay
    return overlay


__all__ = [
    "BYZANTINE_AGENTS_KEY",
    "BYZANTINE_COUNT_KEY",
    "BYZANTINE_DIGEST_KEY",
    "BYZANTINE_STATE_COUNTS_KEY",
    "BYZANTINE_STRATEGIES",
    "BYZANTINE_STRATEGY_KEY",
    "ByzantineOverlay",
    "ByzantineOverlayError",
    "ByzantineProtocolView",
    "ByzantineSpec",
    "HONEST_TAG",
    "TaggedState",
    "build_byzantine_overlay",
    "byzantine_selection_rng",
]
