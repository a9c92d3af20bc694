"""Table-driven compilation of population protocols.

The per-interaction loop in :mod:`repro.engine.simulation` pays a Python
function call, attribute accesses, and object mutation for every interaction,
which caps practical populations around ``n ~ 10^4``.  Protocols with a small
*state space*, however, admit a much faster representation: integer-encode the
reachable states ``0 .. S-1`` and replace the transition function with a dense
``(S, S) -> (S', S')`` lookup table.  Whole scheduler batches can then be
applied with NumPy fancy indexing (see
:class:`~repro.engine.batch_simulation.BatchSimulation`), reaching populations
of a million agents and beyond.

:class:`ProtocolCompiler` performs the encoding:

1. It asks the protocol for seed states via
   :meth:`~repro.engine.protocol.PopulationProtocol.enumerate_states`.
2. It closes the set under the transition function (breadth-first), assigning
   each distinct state signature an integer index.
3. For every ordered state pair it derives the transition's outcome -- either
   by probing ``transition()`` with several fixed-seed generators (and
   verifying the outcomes agree, i.e. the transition is deterministic), or,
   for randomized protocols, from the explicit branch list returned by
   :meth:`~repro.engine.protocol.PopulationProtocol.transition_branches`.

``compile()`` memoizes the last finished table, keyed by the compiler
settings, the protocol's class and ``pickle.dumps(protocol)``, so a sweep
that recompiles one protocol builds its table once; tables are read-only.

The result is a :class:`CompiledProtocol`: dense ``int32`` result tables for
the initiator and responder, a per-entry *branch-probability channel*
(cumulative probabilities, used to sample among randomized branches), and a
``changes`` mask marking the entries that can alter at least one of the two
states.  The mask is what makes million-agent batches fast: interactions whose
entry cannot change anything ("null" interactions) commute with everything and
can be skipped wholesale.

See ``docs/ARCHITECTURE.md`` for when to pick the compiled engine over the
per-interaction loop.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import sys
import threading
import time
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.configuration import Configuration
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import make_rng
from repro.engine.state import AgentState
from repro.telemetry import metrics as _metrics

#: The memo: ``(key, table)`` for the table :meth:`ProtocolCompiler.compile`
#: built last, or ``None``.  One slot suffices because every registered
#: experiment and stress sweep compiles its keys one after another, never
#: alternating between two, and it bounds what a long-lived process retains.
_last_table: Optional[Tuple[tuple, "CompiledProtocol"]] = None
_last_table_lock = threading.Lock()


def clear_compile_memo() -> None:
    """Forget the memoized table.

    The memo key covers a protocol's instance content and class, not class-
    or module-level state, so code that patches those between compiles (tests
    do) must clear the memo.
    """
    global _last_table
    with _last_table_lock:
        _last_table = None


class CompilationError(RuntimeError):
    """Raised when a protocol cannot be compiled to a transition table."""


class _WatchedGenerator(np.random.Generator):
    """A generator that marks its instance dict on every attribute lookup.

    A probe reaches the stream only through an attribute -- a draw method,
    ``bit_generator``, ``spawn`` -- so while the dict is empty the generator
    is where its last rewind left it.
    """

    def __getattribute__(self, name):
        object.__setattr__(self, "_looked_up", True)
        return super().__getattribute__(name)


class _ProbeGenerators:
    """One generator per probe seed, at its seeded start whenever a probe gets it.

    Each wraps the bit generator of ``make_rng(seed)`` and is rewound
    (``bit_generator.state = start``, exactly the draws a fresh
    ``make_rng(seed)`` gives) only if something looked it up since its last
    rewind: deterministic transitions never pay for one.  Each ``compile()``
    call builds its own: ``repro serve`` compiles on worker threads of one
    process.
    """

    def __init__(self, seeds: Sequence[int]):
        self._probes = []
        for seed in seeds:
            bit_generator = make_rng(seed).bit_generator
            generator = _WatchedGenerator(bit_generator)
            marks = object.__getattribute__(generator, "__dict__")
            self._probes.append((generator, marks, bit_generator, bit_generator.state))

    def __iter__(self) -> Iterator[np.random.Generator]:
        for generator, marks, bit_generator, start in self._probes:
            if marks:
                bit_generator.state = start
                marks.clear()
            yield generator


def probe_deterministic_branch(
    protocol: PopulationProtocol,
    initiator: AgentState,
    responder: AgentState,
    probe_seeds: Sequence[int] = (11, 17),
) -> List[Tuple[float, AgentState, AgentState]]:
    """Derive a deterministic transition's single branch by probing.

    Applies ``transition()`` to clones with one fixed-seed generator per probe
    seed and insists the outcomes agree; differing outcomes mean the
    transition consumes randomness without declaring ``transition_branches()``,
    which raises :class:`CompilationError`.  Shared by the compiler's generic
    path and by product protocols deriving their factors' branches.
    """
    new_initiator, new_responder, _ = _probe(
        protocol, initiator, responder, _ProbeGenerators(probe_seeds)
    )
    return [(1.0, new_initiator, new_responder)]


def _probe(
    protocol: PopulationProtocol,
    initiator: AgentState,
    responder: AgentState,
    probes: _ProbeGenerators,
) -> Tuple[AgentState, AgentState, Tuple[Hashable, Hashable]]:
    """The first probe's outcome states and their signatures, once every
    probe's outcome signatures agree with them."""
    signature = protocol.state_signature
    first = None
    for generator in probes:
        probe_initiator = initiator.clone()
        probe_responder = responder.clone()
        protocol.transition(probe_initiator, probe_responder, generator)
        signatures = (signature(probe_initiator), signature(probe_responder))
        if first is None:
            first = (probe_initiator, probe_responder, signatures)
        elif signatures != first[2]:
            raise CompilationError(
                f"{protocol.name}: transition() is randomized (probe outcomes differ "
                f"for pair {initiator!r}, {responder!r}); implement "
                "transition_branches() to expose the branch probabilities"
            )
    return first


def _declares_symmetry(protocol: PopulationProtocol) -> bool:
    """``symmetric_transition`` as declared alongside ``transition()``: the
    first class in the MRO that sets either one decides, so an override of
    ``transition()`` that does not re-declare the flag is not symmetric."""
    for klass in type(protocol).__mro__:
        if "symmetric_transition" in vars(klass):
            return bool(klass.symmetric_transition)
        if "transition" in vars(klass):
            return False
    return False


class CompiledProtocol:
    """A protocol whose dynamics have been lowered to dense NumPy tables.

    Attributes
    ----------
    protocol:
        The source protocol (used for population size, decoding, and the
        slow-path predicates).
    states:
        List of exemplar :class:`AgentState` objects; index ``k`` in any
        encoded array refers to a state equal to ``states[k]``.  Treat the
        exemplars as immutable -- :meth:`decode_configuration` clones them.
    result_initiator / result_responder:
        ``int32`` arrays of shape ``(S * S,)`` (deterministic protocols) or
        ``(S * S, B)`` (randomized, ``B`` = maximum branch count).  Entry
        ``a * S + b`` holds the post-interaction state indices for the ordered
        pair ``(a, b)``.
    branch_cumprob:
        ``None`` for deterministic protocols; otherwise a ``(S * S, B)``
        float array of *cumulative* branch probabilities.  Branch ``k`` is
        selected for uniform ``u`` when ``cumprob[k-1] <= u < cumprob[k]``.
    changes:
        Boolean ``(S * S,)`` mask: ``True`` iff some branch of the entry
        changes at least one of the two states.
    packed_result:
        The two result channels fused into one ``int64`` per entry so the
        batch engine can update both agents of an interaction with a single
        gather and a single scatter: viewing the packed array as ``int32``
        yields ``[initiator', responder', ...]`` interleaved in memory (the
        shift order accounts for byte order).
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        states: Sequence[AgentState],
        result_initiator: np.ndarray,
        result_responder: np.ndarray,
        branch_cumprob: Optional[np.ndarray],
        changes: np.ndarray,
        factor_tables: Optional[Sequence["CompiledProtocol"]] = None,
    ):
        #: Component tables when this table was built by the product
        #: construction (see :meth:`ProtocolCompiler.compile` and the
        #: ``compiled_factors`` protocol hook); ``None`` otherwise.
        self.factor_tables = list(factor_tables) if factor_tables is not None else None
        self.protocol = protocol
        self.states: List[AgentState] = list(states)
        self._index: Dict[Hashable, int] = {
            protocol.state_signature(state): k for k, state in enumerate(self.states)
        }
        self.result_initiator = result_initiator
        self.result_responder = result_responder
        self.branch_cumprob = branch_cumprob
        self.changes = changes
        low, high = (
            (result_initiator, result_responder)
            if sys.byteorder == "little"
            else (result_responder, result_initiator)
        )
        self.packed_result = low.astype(np.int64) | (high.astype(np.int64) << 32)
        #: :meth:`state_array` results by key, shared with every
        #: :meth:`bound_to` twin.
        self._state_arrays: Dict[Hashable, np.ndarray] = {}

    def bound_to(self, protocol: PopulationProtocol) -> "CompiledProtocol":
        """This table with ``protocol`` as its source, sharing every array and exemplar."""
        if protocol is self.protocol:
            return self
        twin = copy.copy(self)
        twin.protocol = protocol
        return twin

    # -- basic properties ----------------------------------------------------------

    @property
    def num_states(self) -> int:
        """Size ``S`` of the encoded state space."""
        return len(self.states)

    @property
    def deterministic(self) -> bool:
        """``True`` iff every table entry has a single branch."""
        return self.branch_cumprob is None

    @property
    def max_branches(self) -> int:
        """Maximum number of randomized branches of any entry (1 if deterministic)."""
        if self.branch_cumprob is None:
            return 1
        return self.branch_cumprob.shape[1]

    # -- encoding / decoding --------------------------------------------------------

    def encode_state(self, state: AgentState) -> int:
        """Return the integer index of ``state``."""
        signature = self.protocol.state_signature(state)
        try:
            return self._index[signature]
        except KeyError:
            raise CompilationError(
                f"state {state!r} is outside the compiled state space "
                f"of {self.protocol.name}"
            ) from None

    def encode_configuration(self, configuration: Configuration) -> np.ndarray:
        """Encode a configuration as an ``int32`` array of state indices."""
        if len(configuration) != self.protocol.n:
            raise ValueError(
                f"configuration has {len(configuration)} agents but protocol "
                f"expects {self.protocol.n}"
            )
        return np.fromiter(
            (self.encode_state(state) for state in configuration),
            dtype=np.int32,
            count=len(configuration),
        )

    def decode_configuration(self, indices: np.ndarray) -> Configuration:
        """Materialize a :class:`Configuration` from an index array (clones states)."""
        return Configuration.from_state_indices(self.states, indices)

    def state_counts(self, indices: np.ndarray) -> np.ndarray:
        """Histogram of state indices (length ``S``)."""
        return np.bincount(indices, minlength=self.num_states)

    def state_array(
        self, key: Hashable, value: Callable[[AgentState], object], dtype=bool
    ) -> np.ndarray:
        """Read-only ``value(states[k])`` per state, built once per table and ``key``.

        For stop predicates, which run on every check: the first call builds
        the array and every later call with ``key`` -- on this table or a
        :meth:`bound_to` twin -- returns it, so ``value`` must depend on the
        state alone (or on parameters twins share, such as ``n``).
        """
        array = self._state_arrays.get(key)
        if array is None:
            array = np.fromiter(
                (value(state) for state in self.states), dtype=dtype, count=self.num_states
            )
            array.setflags(write=False)
            self._state_arrays[key] = array
        return array

    # -- generic fast predicates ----------------------------------------------------

    def counts_silent(self, counts: np.ndarray) -> bool:
        """Exact silence check on a state-count vector.

        A configuration is silent iff no applicable entry of the table can
        change anything: for every ordered pair of *present* states the
        ``changes`` mask is ``False``, where a state interacting with itself
        requires at least two agents in that state to be applicable.
        """
        present = np.nonzero(counts > 0)[0]
        if len(present) == 0:
            return True
        sub = self.changes.reshape(self.num_states, self.num_states)[
            np.ix_(present, present)
        ].copy()
        lone = np.nonzero(counts[present] < 2)[0]
        sub[lone, lone] = False
        return not sub.any()


class ProtocolCompiler:
    """Compiles a :class:`PopulationProtocol` into a :class:`CompiledProtocol`.

    Parameters
    ----------
    max_states:
        Hard cap on the size of the enumerated state space; the dense tables
        are ``S^2`` entries, so this also bounds compile time and memory.
    probe_seeds:
        Seeds used to probe ``transition()`` for determinism when the protocol
        does not provide explicit :meth:`transition_branches`.  Differing
        outcomes across seeds raise :class:`CompilationError`.
    probability_tolerance:
        Tolerance when checking that explicit branch probabilities sum to 1.
    """

    def __init__(
        self,
        max_states: int = 2048,
        probe_seeds: Sequence[int] = (11, 17),
        probability_tolerance: float = 1e-9,
    ):
        if max_states < 1:
            raise ValueError(f"max_states must be positive, got {max_states}")
        if len(probe_seeds) < 2:
            raise ValueError("need at least two probe seeds to detect randomness")
        self.max_states = int(max_states)
        self.probe_seeds = tuple(probe_seeds)
        self.probability_tolerance = float(probability_tolerance)

    def compile(self, protocol: PopulationProtocol) -> CompiledProtocol:
        """Enumerate the reachable state space and build the transition tables.

        Product-structured protocols (see
        :meth:`~repro.engine.protocol.PopulationProtocol.compiled_factors`)
        are compiled by composing their components' tables instead of probing
        every composed transition; everything else goes through the generic
        closure over ``enumerate_states()``.

        The last finished table is memoized under the exact key
        ``(max_states, probe_seeds, probability_tolerance, type(protocol),
        pickle.dumps(protocol))``; a hit returns it bound to ``protocol`` (see
        :meth:`CompiledProtocol.bound_to`) without calling ``transition()``.
        A protocol that does not pickle is compiled on every call, and a
        :class:`CompilationError` is never cached.  Every returned table's
        arrays are read-only, since hits share them.
        """
        started = time.perf_counter()
        try:
            return self._memoized(protocol)
        finally:
            if _metrics._PROFILING:
                _metrics.record_stage_seconds(
                    "compiler", "compile", time.perf_counter() - started
                )

    # -- internals ------------------------------------------------------------------

    def _memoized(self, protocol: PopulationProtocol) -> CompiledProtocol:
        """The memo lookup; the lock is never held while a table is built."""
        global _last_table
        try:
            content = pickle.dumps(protocol)
        except (pickle.PicklingError, TypeError, AttributeError):
            # Lambdas, local classes, locks, generators: no exact key exists.
            _metrics.record_compile("unkeyed")
            return self._build(protocol)
        key = (
            self.max_states,
            self.probe_seeds,
            self.probability_tolerance,
            type(protocol),
            content,
        )
        with _last_table_lock:
            last = _last_table
        if last is not None and last[0] == key:
            _metrics.record_compile("memo_hit")
            return last[1].bound_to(protocol)
        compiled = self._build(protocol)
        with _last_table_lock:
            _last_table = (key, compiled)
        _metrics.record_compile("built")
        return compiled

    def _build(self, protocol: PopulationProtocol) -> CompiledProtocol:
        """Compile ``protocol`` from scratch; the result's arrays are read-only."""
        factors = protocol.compiled_factors()
        if factors is not None:
            compiled = self._compose(protocol, factors)
        else:
            compiled = self._close(protocol)
        for array in (
            compiled.result_initiator,
            compiled.result_responder,
            compiled.branch_cumprob,
            compiled.changes,
            compiled.packed_result,
        ):
            if array is not None:
                array.setflags(write=False)
        return compiled

    def _close(self, protocol: PopulationProtocol) -> CompiledProtocol:
        """The generic path: close ``enumerate_states()`` under the transitions."""
        seeds = protocol.enumerate_states()
        if seeds is None:
            raise CompilationError(
                f"{protocol.name} does not implement enumerate_states(); "
                "the compiled engine needs a finite, enumerable state space"
            )

        states: List[AgentState] = []
        index: Dict[Hashable, int] = {}

        def intern(state: AgentState, signature: Hashable) -> int:
            existing = index.get(signature)
            if existing is not None:
                return existing
            if len(states) >= self.max_states:
                raise CompilationError(
                    f"{protocol.name}: state space exceeds max_states="
                    f"{self.max_states} during closure"
                )
            position = len(states)
            index[signature] = position
            states.append(state.clone())
            return position

        for seed_state in seeds:
            intern(seed_state, protocol.state_signature(seed_state))
        if not states:
            raise CompilationError(f"{protocol.name}: enumerate_states() returned no states")

        # Close the state set under the transition relation, pair by pair.
        # A probed pair appends ``i, j, i', j'`` to one flat list; declared
        # branch lists go to ``explicit``.  Without an override of
        # transition_branches() the hook always answers None, so it is skipped
        # along with the two clones it would be handed.
        probes = _ProbeGenerators(self.probe_seeds)
        explicit_hook = (
            getattr(protocol.transition_branches, "__func__", None)
            is not PopulationProtocol.transition_branches
        )
        # A symmetric protocol probes only pairs with j >= i.  The mirror
        # (j, i) of a skipped pair (i, j) came earlier in this loop order, in
        # this round or an earlier one, and interned both outcome states, so
        # skipping interns nothing the full loop would not: the state order
        # is the same.
        symmetric = _declares_symmetry(protocol)
        if symmetric and explicit_hook:
            raise CompilationError(
                f"{protocol.name}: declares both symmetric_transition and "
                "transition_branches(); symmetric tables are built by probing"
            )
        probed: List[int] = []
        explicit: Dict[Tuple[int, int], List[Tuple[float, int, int]]] = {}
        closed = 0
        while closed < len(states):
            boundary = len(states)
            for i in range(boundary):
                initiator = states[i]
                first = closed if i < closed else 0
                for j in range(max(first, i) if symmetric else first, boundary):
                    responder = states[j]
                    branches = (
                        protocol.transition_branches(initiator.clone(), responder.clone())
                        if explicit_hook
                        else None
                    )
                    if branches is not None:
                        explicit[(i, j)] = self._branches(protocol, branches, intern)
                        continue
                    new_initiator, new_responder, (signature_i, signature_j) = _probe(
                        protocol, initiator, responder, probes
                    )
                    new_i = intern(new_initiator, signature_i)
                    new_j = intern(new_responder, signature_j)
                    if symmetric and i == j and new_i != new_j:
                        raise CompilationError(
                            f"{protocol.name}: declares symmetric_transition, but "
                            f"transition() of the pair {initiator!r}, {responder!r} "
                            "leaves two different states"
                        )
                    probed.extend((i, j, new_i, new_j))
            closed = boundary

        return self._tabulate(protocol, states, probed, explicit, symmetric)

    def _branches(
        self,
        protocol: PopulationProtocol,
        branches: Sequence[Tuple[float, AgentState, AgentState]],
        intern: Callable[[AgentState, Hashable], int],
    ) -> List[Tuple[float, int, int]]:
        """Validate a declared branch list and encode it as
        ``[(probability, initiator', responder')]``."""
        if not branches:
            raise CompilationError(
                f"{protocol.name}: transition_branches() returned no branches"
            )
        signature = protocol.state_signature
        total = 0.0
        encoded: List[Tuple[float, int, int]] = []
        for probability, new_initiator, new_responder in branches:
            probability = float(probability)
            if probability <= 0.0:
                raise CompilationError(
                    f"{protocol.name}: branch probability must be positive, "
                    f"got {probability}"
                )
            total += probability
            encoded.append(
                (
                    probability,
                    intern(new_initiator, signature(new_initiator)),
                    intern(new_responder, signature(new_responder)),
                )
            )
        if abs(total - 1.0) > self.probability_tolerance:
            raise CompilationError(
                f"{protocol.name}: branch probabilities sum to {total}, expected 1"
            )
        return encoded

    def _tabulate(
        self,
        protocol: PopulationProtocol,
        states: List[AgentState],
        probed: List[int],
        explicit: Dict[Tuple[int, int], List[Tuple[float, int, int]]],
        symmetric: bool,
    ) -> CompiledProtocol:
        """The dense arrays from the probed ``i, j, i', j'`` list and the
        declared branch lists.

        A table is single-branch unless some declared list has two branches
        or more; a declared single branch then keeps its own probability.
        A ``symmetric`` table fills entry ``(j, i)`` of every probed
        off-diagonal pair with ``j', i'``.
        """
        num_states = len(states)
        entries = num_states * num_states
        max_branches = max((len(branches) for branches in explicit.values()), default=1)
        if max_branches == 1:
            for (i, j), [(_, new_i, new_j)] in explicit.items():
                probed.extend((i, j, new_i, new_j))
        pairs_i, pairs_j, results_i, results_j = np.array(probed, dtype=np.int64).reshape(-1, 4).T
        if symmetric:
            mirrored = pairs_i != pairs_j
            pairs_i, pairs_j, results_i, results_j = [
                np.concatenate((own, swapped[mirrored]))
                for own, swapped in (
                    (pairs_i, pairs_j),
                    (pairs_j, pairs_i),
                    (results_i, results_j),
                    (results_j, results_i),
                )
            ]
        rows = pairs_i * num_states + pairs_j

        changes = np.zeros(entries, dtype=bool)
        changes[rows] = (results_i != pairs_i) | (results_j != pairs_j)
        if max_branches == 1:
            result_initiator = np.empty(entries, dtype=np.int32)
            result_responder = np.empty(entries, dtype=np.int32)
            result_initiator[rows] = results_i
            result_responder[rows] = results_j
            branch_cumprob = None
        else:
            # A probed entry repeats its one outcome in every branch column.
            result_initiator = np.empty((entries, max_branches), dtype=np.int32)
            result_responder = np.empty((entries, max_branches), dtype=np.int32)
            result_initiator[rows] = results_i[:, None]
            result_responder[rows] = results_j[:, None]
            branch_cumprob = np.ones((entries, max_branches), dtype=np.float64)
            for (i, j), branches in explicit.items():
                row = i * num_states + j
                cumulative = 0.0
                for k in range(max_branches):
                    probability, new_i, new_j = branches[min(k, len(branches) - 1)]
                    if k < len(branches):
                        cumulative += probability
                        changes[row] |= new_i != i or new_j != j
                    result_initiator[row, k] = new_i
                    result_responder[row, k] = new_j
                    branch_cumprob[row, k] = min(cumulative, 1.0)
                branch_cumprob[row, -1] = 1.0

        return CompiledProtocol(
            protocol=protocol,
            states=states,
            result_initiator=result_initiator,
            result_responder=result_responder,
            branch_cumprob=branch_cumprob,
            changes=changes,
        )

    # -- product composition --------------------------------------------------------

    def _compose(
        self, protocol: PopulationProtocol, factors: Sequence[PopulationProtocol]
    ) -> CompiledProtocol:
        """Build the product table of ``protocol`` from its factors' tables.

        Each factor is compiled independently (recursively -- a factor may
        itself declare factors) and the dense tables are combined by index
        arithmetic: the composed state ``(a, b)`` is encoded as
        ``a * S_b + b``, branch probabilities multiply across layers, and an
        entry changes iff some layer's entry changes.  No composed transition
        is ever probed, so composition cost is ``O(S^2 B)`` NumPy work rather
        than ``O(S^2)`` Python transition calls.
        """
        if len(factors) < 2:
            raise CompilationError(
                f"{protocol.name}: compiled_factors() must return at least two "
                f"components, got {len(factors)}"
            )
        compiled_factors: List[CompiledProtocol] = []
        for factor in factors:
            if factor.n != protocol.n:
                raise CompilationError(
                    f"{protocol.name}: component {factor.name} has population "
                    f"size {factor.n}, expected {protocol.n}"
                )
            try:
                compiled_factors.append(self._build(factor))
            except CompilationError as error:
                raise CompilationError(
                    f"{protocol.name}: component {factor.name} is not "
                    f"compilable: {error}"
                ) from error

        product_states = 1
        for compiled in compiled_factors:
            product_states *= compiled.num_states
        if product_states > self.max_states:
            raise CompilationError(
                f"{protocol.name}: product state space has {product_states} "
                f"states, exceeding max_states={self.max_states}"
            )

        tables = _as_raw_tables(compiled_factors[0])
        for compiled in compiled_factors[1:]:
            tables = _product_tables(tables, _as_raw_tables(compiled))

        states = [
            protocol.compose_state([state.clone() for state in combination])
            for combination in itertools.product(
                *(compiled.states for compiled in compiled_factors)
            )
        ]

        result_initiator, result_responder = tables["initiator"], tables["responder"]
        max_branches = result_initiator.shape[1]
        if max_branches == 1:
            result_initiator = result_initiator[:, 0].copy()
            result_responder = result_responder[:, 0].copy()
            branch_cumprob = None
        else:
            branch_cumprob = np.minimum(np.cumsum(tables["probability"], axis=1), 1.0)
            branch_cumprob[:, -1] = 1.0
        return CompiledProtocol(
            protocol=protocol,
            states=states,
            result_initiator=result_initiator.astype(np.int32, copy=False),
            result_responder=result_responder.astype(np.int32, copy=False),
            branch_cumprob=branch_cumprob,
            changes=tables["changes"],
            factor_tables=compiled_factors,
        )


def table_for(
    protocol: PopulationProtocol,
    compiled: Optional[CompiledProtocol] = None,
    compiler: Optional[ProtocolCompiler] = None,
) -> CompiledProtocol:
    """The table an engine runs ``protocol`` on: a fresh compile, or ``compiled``.

    A given table must come from the same protocol type, population size and
    enumerated state space, which catches parameter mismatches that reshape
    the table (e.g. differing ``R_max``); parameters that alter transition
    outcomes without changing the state list cannot be detected here.
    """
    if compiled is None:
        return (compiler or ProtocolCompiler()).compile(protocol)
    source = compiled.protocol
    if source is protocol:
        return compiled
    if type(source) is not type(protocol) or source.n != protocol.n:
        raise ValueError(f"compiled table was built for {source!r}, not {protocol!r}")
    ours = [protocol.state_signature(s) for s in protocol.enumerate_states() or []]
    theirs = [source.state_signature(s) for s in source.enumerate_states() or []]
    if ours != theirs:
        raise ValueError(
            f"compiled table was built for {source!r}, whose enumerated "
            f"state space differs from {protocol!r} -- check protocol "
            "parameters"
        )
    return compiled


def _as_raw_tables(compiled: CompiledProtocol) -> Dict[str, np.ndarray]:
    """Normalize a compiled table to the branch-explicit raw form.

    Raw form: ``initiator`` / ``responder`` of shape ``(S^2, B)``,
    per-branch ``probability`` (``B = 1`` with probability 1 for
    deterministic tables), plus ``changes`` and ``num_states``.
    """
    if compiled.branch_cumprob is None:
        initiator = compiled.result_initiator.reshape(-1, 1)
        responder = compiled.result_responder.reshape(-1, 1)
        probability = np.ones_like(initiator, dtype=np.float64)
    else:
        initiator = compiled.result_initiator
        responder = compiled.result_responder
        probability = np.diff(compiled.branch_cumprob, axis=1, prepend=0.0)
    return {
        "num_states": compiled.num_states,
        "initiator": initiator,
        "responder": responder,
        "probability": probability,
        "changes": compiled.changes,
    }


def _product_tables(left: Dict[str, np.ndarray], right: Dict[str, np.ndarray]) -> Dict:
    """Combine two raw tables into the raw table of their product protocol.

    With ``S_l`` / ``S_r`` states and ``B_l`` / ``B_r`` branches, the product
    has ``S_l * S_r`` states (state ``(a, b)`` encoded as ``a * S_r + b``) and
    ``B_l * B_r`` branches whose probabilities multiply.  Padded zero-width
    branches stay zero-width, so sampling never selects them.
    """
    num_left, num_right = left["num_states"], right["num_states"]
    branches_left = left["initiator"].shape[1]
    branches_right = right["initiator"].shape[1]
    num_states = num_left * num_right

    def combine(channel: str) -> np.ndarray:
        expanded_left = left[channel].reshape(
            num_left, 1, num_left, 1, branches_left, 1
        )
        expanded_right = right[channel].reshape(
            1, num_right, 1, num_right, 1, branches_right
        )
        if channel == "probability":
            combined = expanded_left * expanded_right
        else:
            combined = expanded_left.astype(np.int64) * num_right + expanded_right
        return combined.reshape(num_states * num_states, branches_left * branches_right)

    changes = (
        left["changes"].reshape(num_left, 1, num_left, 1)
        | right["changes"].reshape(1, num_right, 1, num_right)
    ).reshape(num_states * num_states)
    return {
        "num_states": num_states,
        "initiator": combine("initiator"),
        "responder": combine("responder"),
        "probability": combine("probability"),
        "changes": changes,
    }


__all__ = [
    "CompilationError",
    "CompiledProtocol",
    "ProtocolCompiler",
    "clear_compile_memo",
    "probe_deterministic_branch",
    "table_for",
]
