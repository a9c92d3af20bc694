"""The counts-only population-dynamics engine.

:class:`CountsSimulation` is the third engine.  It never materializes agents:
a configuration is exactly what the paper's guarantees quantify over -- a
multiset of states -- so the engine holds one integer count per (weight
class, state) cell and advances whole scheduler windows with O(S^2) work,
independent of the population size ``n``.  That unlocks ``n = 1e8``-``1e9``
runs for fixed-state-space protocols where the per-agent engines stall near
``n = 1e6``.

Window-sampling contract
------------------------
Per interaction the scheduler draws an ordered (initiator, responder) pair of
distinct agents; under :class:`~repro.adversary.schedulers.BiasedPairScheduler`
semantics agent ``i`` initiates with probability ``w_i / W`` and ``j ≠ i``
responds with probability ``w_j / (W - w_i)`` (uniform is the all-ones special
case).  Agents of equal weight and state are exchangeable, so the interaction
law only depends on the per-cell counts ``c_x`` for cells ``x = (g, a)``
(weight class ``g``, state ``a``)::

    P[x, y] = (w_g c_x / W_tot) * w_h (c_y - [x = y]) / (W_tot - w_g)

with ``W_tot = sum_g w_g n_g``.  A window of ``W`` consecutive draws is
consumed in one shot:

* ``K ~ Binomial(W, q)`` splits the window into null draws and *active*
  draws, where ``q`` is the total probability of pairs whose table entry can
  change a state (the compiled ``changes`` mask);
* the ``K`` active draws are split per ordered cell pair by a multinomial
  over ``P / q``, then per transition branch by a second (vectorized)
  multinomial over ``transition_branches`` probabilities;
* the resulting state flows are applied as one integer delta vector.

For ``W = 1`` this *is* the single-interaction law -- exact, bit-for-bit in
distribution.  For ``W > 1`` it is a tau-leap: the pair probabilities are
frozen at the window start, so the window is distribution-equivalent up to
the drift the window itself causes.  Two guards bound that drift:

* **window sizing** -- ``W`` is chosen so the *expected* number of agents
  consumed from any cell stays below ``DEFAULT_DRIFT_CAP`` (5%) of its
  count, with no floor: a count-1 cell whose whole propensity turns over in
  one event forces ``W`` toward 1, where the sampler is exact;
* **matching feasibility** -- a sampled window is accepted only if no cell
  supplies more initiators+responders than it holds, i.e. the events form a
  batch of interactions on *distinct* agents.  Any single-interaction
  invariant (leader conservation, level monotonicity, ...) therefore holds
  across windows by construction.  Infeasible samples retry at half the
  window, terminating at the exact ``W = 1`` law.

The three-engine equivalence matrix in
``tests/engine/test_engine_equivalence.py`` holds the resulting
convergence-time distributions to the per-agent engines'.

Limits
------
* State spaces that grow with ``n`` (Optimal-Silent-SSR's rank alphabet,
  ``SilentNStateSSR``) compile to S = Θ(n) tables, so the O(S^2) window cost
  erases the advantage; the engine is exact for them at small ``n`` (the
  equivalence matrix runs them), but the big-``n`` wins are for fixed-``S``
  protocols.
* The epoch-partition scheduler is time-inhomogeneous over agent *identities*
  and is not representable in counts space; requesting it raises
  ``NotImplementedError``.
* Per-interaction hooks and per-agent inspection are meaningless without
  agents; :attr:`CountsSimulation.configuration` decodes an arbitrary
  agent order.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.engine.compiled import CompiledProtocol, ProtocolCompiler, _as_raw_tables, table_for
from repro.engine.configuration import Configuration
from repro.engine.core import EngineCore
from repro.engine.protocol import PopulationProtocol
from repro.engine.rng import RngLike, make_rng
from repro.engine.run_config import COUNTS_EPOCH_MESSAGE
from repro.telemetry import metrics as _metrics

#: Bound on the expected fraction of a cell's count consumed by one window
#: (the tau-leap accuracy: 1 would keep windows maximal, ->0 approaches the
#: exact one-interaction-per-window law).  Window sizes shape the random
#: stream, so checkpoints record it.
DEFAULT_DRIFT_CAP = 0.05

#: Windows are capped so ``Binomial(window, q)`` stays inside int64 even when
#: the interaction budget is astronomically larger than the active probability
#: would ever sample.
_HARD_WINDOW_CAP = 1 << 62


def _one_class(ids) -> np.ndarray:
    """Weight class of each agent id when every agent shares one class."""
    return np.zeros(len(np.asarray(ids)), dtype=np.int64)


def active_pair_tables(compiled: CompiledProtocol) -> Dict[str, np.ndarray]:
    """Static sampling tables over the full active state-pair support.

    Unlike :meth:`CountsSimulation._build_structure`, which caches the
    support of the *currently occupied* cells of one run, these tables
    enumerate every ordered state pair the compiled ``changes`` mask marks
    active, independent of the counts: empty cells carry zero probability
    under the window law, so one table set serves every trial of a batched
    sweep (:class:`repro.engine.trial_batch.CountsTrialBatchSimulation`).
    Uniform-scheduler support only -- there are no weight classes here.
    """
    tables = _as_raw_tables(compiled)
    num_states = compiled.num_states
    changes = tables["changes"].reshape(num_states, num_states)
    x, y = np.nonzero(changes)
    x = x.astype(np.int64)
    y = y.astype(np.int64)
    rows = x * num_states + y
    support: Dict[str, np.ndarray] = {
        "x": x,
        "y": y,
        "diagonal": (x == y).astype(np.float64),
        "num_branches": tables["probability"].shape[1],
        # Output state of each side per (pair, branch): flattened over a
        # subset of the pairs, the firsts and seconds of dense_pair_terms.
        "outputs": (tables["initiator"][rows], tables["responder"][rows]),
    }
    if support["num_branches"] > 1:
        support["branch_pvals"] = tables["probability"][rows]
    return support


def pair_flows(shape, first, second, weights: np.ndarray) -> np.ndarray:
    """Add ``weights`` at flat ``row * S + state`` indices ``first``, then ``second``.

    One 1-D ``np.add.at`` onto zeros of ``shape``, every first-side term in input
    order before any second-side term: bit for bit one 2-D ``np.add.at`` per side
    (floats sum in the same order, ints stay int64).  Terms are nonzero; adding
    ±0.0 to a partial sum is exact, so dropping zeros changes no cell."""
    out = np.zeros(shape, dtype=weights.dtype)
    np.add.at(out.reshape(-1), np.concatenate((first, second)), np.concatenate((weights, weights)))
    return out


def dense_pair_terms(weights: np.ndarray, first, second, width: int):
    """:func:`pair_flows` terms of the nonzero entries of a dense ``(rows, ...)``
    array, in C order: the row is the leading index, and ``first`` / ``second``
    give each side's state by flat position over the trailing axes."""
    table = weights.reshape(len(weights), -1)  # a view of the engine arrays, C or F order
    row, rest = np.divmod((table != 0).reshape(-1).nonzero()[0], table.shape[1])
    base = row * width
    return base + first[rest], base + second[rest], table[row, rest]


class CountsSimulation(EngineCore):
    """Runs one execution of a compiled protocol on a state-count vector.

    Mirrors the :class:`~repro.engine.batch_simulation.BatchSimulation` API
    (``step``, ``run``, ``run_until_*``, ``apply_fault``) but holds only a
    ``(classes, S)`` count matrix -- one row per scheduler weight class --
    so memory and per-window cost are independent of ``n``.

    Parameters
    ----------
    protocol:
        The protocol to run.  Must be compilable unless ``compiled`` is given.
    configuration:
        Optional starting configuration (encoded on construction; O(n)).
    indices:
        Optional starting state-index array (length ``n``).  Mutually
        exclusive with ``configuration`` and ``counts``.  Retained until the
        first interaction so a biased scheduler installed at plan start can
        split the counts across weight classes exactly.
    counts:
        Optional starting state-count vector (length ``S``, summing to
        ``n``) -- the O(S) fast path that seeds an ``n = 1e8`` run without
        ever building a per-agent array.
    compiled:
        Reuse an existing :class:`CompiledProtocol` (checked for
        compatibility by :func:`~repro.engine.compiled.table_for`).
    compiler:
        Compiler to use when ``compiled`` is not given.
    scheduler_spec:
        Optional :class:`~repro.adversary.schedulers.SchedulerSpec` (duck
        typed) to install immediately; ``run(config)`` installs the config's
        spec the same way.
    record_windows:
        When true, every consumed window is appended to
        :attr:`window_log` as ``{"window", "counts_before", "counts_after",
        "events"}`` with ``events`` an ``(M, 7)`` array of rows
        ``(class_i, state_i, class_j, state_j, out_i, out_j, count)`` --
        the debug surface the pair-by-pair replay test consumes.
    """

    ENGINE = "counts"

    def __init__(
        self,
        protocol: PopulationProtocol,
        configuration: Optional[Configuration] = None,
        indices: Optional[np.ndarray] = None,
        counts: Optional[np.ndarray] = None,
        rng: RngLike = None,
        compiled: Optional[CompiledProtocol] = None,
        compiler: Optional[ProtocolCompiler] = None,
        scheduler_spec=None,
        record_windows: bool = False,
    ):
        given = [name for name, value in (
            ("configuration", configuration), ("indices", indices), ("counts", counts)
        ) if value is not None]
        if len(given) > 1:
            raise ValueError(f"pass at most one of configuration/indices/counts, got {given}")
        if protocol.n < 2:
            raise ValueError("the counts engine needs a population of at least 2")
        self.protocol = protocol
        self.rng = make_rng(rng)
        compiled = table_for(protocol, compiled, compiler)
        self._load_table(compiled)
        num_states = compiled.num_states

        n = protocol.n
        self._seed_indices: Optional[np.ndarray] = None
        if counts is not None:
            self._matrix = compiled.checked_counts(counts).reshape(1, -1)
        else:
            if indices is not None:
                indices = compiled.checked_indices(indices, (n,))
            else:
                if configuration is None:
                    configuration = protocol.initial_configuration(self.rng)
                indices = compiled.encode_configuration(configuration)
            self._seed_indices = indices
            self._matrix = np.bincount(indices, minlength=num_states).reshape(1, -1)
        self._matrix = self._matrix.astype(np.int64, copy=False)

        self._class_weights = np.ones(1)
        self._class_of: Callable[[np.ndarray], np.ndarray] = _one_class
        self.interactions = 0
        self._law_cache = None
        self._structure_cache = None
        self.window_log: Optional[List[Dict]] = [] if record_windows else None
        if scheduler_spec is not None:
            self._install_scheduler(scheduler_spec)

    def _load_table(self, compiled: CompiledProtocol) -> None:
        """Run on ``compiled``: its branch tables and ``(S, S)`` changes mask."""
        self.compiled = compiled
        tables = _as_raw_tables(compiled)
        self._branch_initiator = tables["initiator"]
        self._branch_responder = tables["responder"]
        self._branch_probability = tables["probability"]
        self._num_branches = self._branch_probability.shape[1]
        num_states = compiled.num_states
        self._changes = compiled.changes.reshape(num_states, num_states)

    # -- views ----------------------------------------------------------------------

    @property
    def state_counts(self) -> np.ndarray:
        """Histogram of state indices (length ``S``), summed over weight classes."""
        return self._matrix.sum(axis=0)

    @property
    def class_state_matrix(self) -> np.ndarray:
        """The live ``(classes, S)`` count matrix (treat as read-only)."""
        return self._matrix

    @property
    def configuration(self) -> Configuration:
        """Decode the counts into a configuration (agent order is arbitrary:
        counts carry no identities, so agents are grouped by state)."""
        totals = self.state_counts
        indices = np.repeat(np.arange(len(totals)), totals).astype(np.int32)
        return self.compiled.decode_configuration(indices)

    # -- scheduler installation -------------------------------------------------------

    def _install_scheduler(self, spec) -> None:
        """Re-express the count matrix in the spec's weight classes.

        The spec is interpreted structurally (``kind`` / ``weights`` /
        ``hot_fraction`` / ``hot_weight``) so the engine layer never imports
        the adversary package; the arithmetic matches
        :class:`~repro.adversary.schedulers.BiasedPairScheduler` -- agents of
        one weight form one exchangeable class, and the pair law in
        :meth:`pair_distribution` is exact per class.
        """
        kind = getattr(spec, "kind", None)
        n = self.protocol.n
        num_states = self.compiled.num_states
        self._law_cache = None
        self._structure_cache = None
        populations = None
        if kind == "uniform":
            unique = np.ones(1)
        elif kind == "epoch":
            # RunConfig.__post_init__ rejects this combination up front; the
            # engine-level raise (same message) covers direct construction.
            raise NotImplementedError(COUNTS_EPOCH_MESSAGE)
        elif kind != "biased":
            raise ValueError(f"unknown scheduler kind {kind!r} for the counts engine")
        elif getattr(spec, "weights", None) is not None:
            weights = np.asarray(spec.weights, dtype=np.float64)
            if weights.shape != (n,):
                raise ValueError(
                    f"biased scheduler weights must have length {n}, got {weights.shape}"
                )
            if not np.all(np.isfinite(weights)) or bool((weights < 0).any()):
                raise ValueError("biased scheduler weights must be finite and non-negative")
            if int((weights > 0).sum()) < 2:
                raise ValueError(
                    "biased scheduler needs at least two agents with positive weight"
                )
            unique, inverse = np.unique(weights, return_inverse=True)
            inverse = inverse.astype(np.int64)

            def class_of(ids, inverse=inverse):
                return inverse[np.asarray(ids, dtype=np.int64)]

        else:
            # Declarative hot set: the first round(hot_fraction * n) agents
            # get hot_weight, the rest weight 1 (SchedulerSpec.build parity).
            hot = max(1, min(n - 1, int(round(spec.hot_fraction * n))))
            hot_weight = float(spec.hot_weight)
            unique = np.unique(np.array([hot_weight, 1.0]))
            hot_class = int(np.searchsorted(unique, hot_weight))
            cold_class = int(np.searchsorted(unique, 1.0))

            def class_of(ids, hot=hot, hot_class=hot_class, cold_class=cold_class):
                ids = np.asarray(ids, dtype=np.int64)
                return np.where(ids < hot, hot_class, cold_class)

            populations = np.zeros(len(unique), dtype=np.int64)
            populations[hot_class] += hot
            populations[cold_class] += n - hot

        num_classes = len(unique)
        if num_classes == 1:
            # Uniform, or biased with all (positive) weights equal: one class.
            self._matrix = self._matrix.sum(axis=0).reshape(1, -1)
            self._class_weights = np.ones(1)
            self._class_of = _one_class
            return

        totals = self._matrix.sum(axis=0)
        matrix = np.zeros((num_classes, num_states), dtype=np.int64)
        if self._seed_indices is not None and self.interactions == 0:
            # Exact split: the per-agent seed is still authoritative.
            classes = class_of(np.arange(n))
            np.add.at(matrix, (classes, self._seed_indices.astype(np.int64)), 1)
        else:
            present = np.nonzero(totals)[0]
            if len(present) != 1:
                raise ValueError(
                    "cannot split a counts-only configuration across biased "
                    "weight classes: seed CountsSimulation with configuration= "
                    "or indices= (or a single-state counts vector) when using "
                    "a biased scheduler"
                )
            if populations is None:
                populations = np.bincount(class_of(np.arange(n)), minlength=num_classes)
            matrix[:, present[0]] = populations
        self._matrix = matrix
        self._class_weights = unique
        self._class_of = class_of

    # -- byzantine overlay -------------------------------------------------------------

    def _install_byzantine(self, spec):
        """Install a persistent Byzantine overlay (before any interaction).

        Counts-space form of the compiled engine's install: the per-state
        adversary histogram comes from the same side-stream
        ``multivariate_hypergeometric`` draw (so the selection is bit-identical
        to the identity engines'), and the count matrix widens to the extended
        ``T * S`` state space with a dedicated Byzantine weight-class row --
        honest counts stay in row 0 under their base columns, adversarial
        counts move to row 1 under their tag-1 columns.  The row split reuses
        the biased-scheduler class machinery unchanged (all weights 1, so the
        pair law is still uniform), and the extended table keeps the rows
        invariant: Byzantine outcomes are always tagged, honest outcomes never
        are.
        """
        from repro.adversary.byzantine import (
            build_byzantine_overlay,
            byzantine_selection_rng,
        )

        overlay = build_byzantine_overlay(self.protocol, self.compiled, spec)
        totals = self._matrix.sum(axis=0)
        marked = overlay.draw_marking(byzantine_selection_rng(self.rng), totals)
        num_base = self.compiled.num_states
        matrix = np.zeros((2, overlay.compiled.num_states), dtype=np.int64)
        matrix[0, :num_base] = totals - marked
        start = overlay.initial_tag * num_base
        matrix[1, start:start + num_base] = marked
        self._matrix = matrix
        self._class_weights = np.ones(2)
        self._load_table(overlay.compiled)
        self._seed_indices = None
        self._law_cache = None
        self._structure_cache = None
        return overlay

    # -- the window sampler ------------------------------------------------------------

    def pair_distribution(self):
        """Exact ordered-pair law of one interaction, at cell granularity.

        Returns ``(classes, states, pair_prob, active)`` where ``classes`` /
        ``states`` index the nonempty (weight class, state) cells, ``pair_prob``
        is the ``(X, X)`` matrix of probabilities that one scheduler draw picks
        an initiator from cell ``x`` and a responder from cell ``y``, and
        ``active`` marks the cell pairs whose table entry can change a state.
        ``pair_prob`` sums to 1 (the property suite checks it against
        brute-force agent-level enumeration).
        """
        matrix = self._matrix
        classes, states = np.nonzero(matrix)
        cells = matrix[classes, states].astype(np.float64)
        if self._class_weights.size == 1:
            # Uniform fast path: P[x, y] = c_x (c_y - [x = y]) / (n (n - 1)).
            total = cells.sum()
            pair_prob = np.outer(cells, cells / (total * (total - 1.0)))
            diagonal = np.arange(len(cells))
            pair_prob[diagonal, diagonal] -= cells / (total * (total - 1.0))
        else:
            weights = self._class_weights[classes]
            totals = matrix.sum(axis=1, dtype=np.float64)
            total_weight = float(self._class_weights @ totals)
            init_prob = weights * cells / total_weight
            responder_mass = weights * cells
            denominator = total_weight - weights
            pair_prob = init_prob[:, None] * (
                responder_mass[None, :] / denominator[:, None]
            )
            diagonal = np.arange(len(cells))
            pair_prob[diagonal, diagonal] = (
                init_prob * weights * (cells - 1.0) / denominator
            )
        active = self._changes[states[:, None], states]
        return classes, states, pair_prob, active

    def _build_structure(self, classes, states, key) -> Dict:
        """Sampling tables for one set of occupied cells.

        Everything here depends only on *which* (class, state) cells are
        occupied -- the active cell-pair support, its branch-table rows, its
        cells (``flat_*``) and output class rows (``base_*``) as flat
        :func:`pair_flows` indices -- not on the counts themselves, so it
        survives across windows until a cell empties or fills (``key``).
        """
        active = self._changes[states[:, None], states]
        x, y = np.nonzero(active)
        width = self.compiled.num_states
        rows = states[x].astype(np.int64) * width + states[y]
        base_x, base_y = classes[x] * width, classes[y] * width
        structure = {
            "key": key,
            "x": x, "y": y,
            "diagonal": (x == y).astype(np.float64),
            "cell_weights": self._class_weights[classes],
            "base_x": base_x, "flat_x": base_x + states[x],
            "base_y": base_y, "flat_y": base_y + states[y],
            "rows": rows,
        }
        if self._num_branches == 1:
            structure["out_x"] = base_x + self._branch_initiator[rows, 0]
            structure["out_y"] = base_y + self._branch_responder[rows, 0]
        else:
            structure["branch_pvals"] = self._branch_probability[rows]
        return structure

    def _window_law(self) -> Dict:
        """The frozen law, sampling tables, and window bound for this state.

        Cached between windows: an empty window (no active draw) leaves the
        counts untouched, so nothing changes until an event, fault, or
        scheduler install dirties the cache (``_law_cache = None``).  The
        law's support tables come from :meth:`_build_structure` (reused while
        the same cells stay occupied); this method only refreshes the
        count-dependent values -- pair probabilities over the support (the
        same law :meth:`pair_distribution` exposes densely; the property
        suite's chi-squared cross-checks the two) and the drift-capped
        window bound.
        """
        if self._law_cache is not None:
            return self._law_cache
        matrix = self._matrix
        classes, states = np.nonzero(matrix)
        key = (classes.tobytes(), states.tobytes())
        structure = self._structure_cache
        if structure is None or structure["key"] != key:
            structure = self._build_structure(classes, states, key)
            self._structure_cache = structure

        cells = matrix[classes, states].astype(np.float64)
        weights = structure["cell_weights"]
        x, y = structure["x"], structure["y"]
        if len(x) == 0:
            self._law_cache = {"total_active": 0.0}
            return self._law_cache
        total_weight = float(weights @ cells)
        weight_x = weights[x]
        probs = (weight_x * cells[x] / total_weight) * (
            weights[y] * (cells[y] - structure["diagonal"])
            / (total_weight - weight_x)
        )
        total_active = float(probs.sum())
        if total_active <= 0.0:
            self._law_cache = {"total_active": 0.0}
            return self._law_cache
        # Window sizing: the expected number of removals from any cell must
        # stay below DEFAULT_DRIFT_CAP * count.  No floor on the allowance -- a cell
        # of count 1 or 2 whose whole propensity turns over in one event
        # (e.g. rank-collision chains) forces the window toward 1, where the
        # sampler is exact; large-count cells keep windows wide.
        removal = np.bincount(x, weights=probs, minlength=len(cells)) + np.bincount(
            y, weights=probs, minlength=len(cells)
        )
        consuming = removal > 0.0
        cap = (DEFAULT_DRIFT_CAP * cells[consuming] / removal[consuming]).min()

        law = dict(structure)
        law["total_active"] = total_active
        law["cap"] = cap
        law["pvals"] = probs / total_active
        self._law_cache = law
        return law

    def _advance(self, remaining: int) -> int:
        """Consume one window (at most ``remaining`` interactions)."""
        profile = _metrics._PROFILING
        marker = time.perf_counter() if profile else 0.0
        law = self._window_law()
        if profile:
            now = time.perf_counter()
            _metrics.record_stage_seconds("counts", "scheduler_draw", now - marker)
            marker = now
        if law["total_active"] <= 0.0:
            # No scheduled pair can change a state: the rest of the budget is
            # null draws and commutes into one jump.
            self._log_window(remaining, None)
            if _metrics._ENABLED:
                _metrics.record_window("counts", remaining)
            return remaining

        cap = law["cap"]
        window = remaining if cap >= float(remaining) else max(int(cap), 1)
        if _metrics._ENABLED and cap < float(remaining):
            _metrics.record_drift_cap()
        window = min(window, _HARD_WINDOW_CAP)
        while not self._try_window(window, law):
            # The sampled events consumed more agents from some cell than it
            # holds; retry at half the window.  At window = 1 the sampler is
            # the exact single-interaction law and can never overdraw (the
            # pair probabilities already vanish for underfilled cells), so
            # the halving terminates.
            if _metrics._ENABLED:
                _metrics.record_halving()
            window = max(window // 2, 1)
        if profile:
            _metrics.record_stage_seconds(
                "counts", "table_apply", time.perf_counter() - marker
            )
        if _metrics._ENABLED:
            _metrics.record_window("counts", window)
        return window

    def _try_window(self, window: int, law: Dict) -> bool:
        """Sample and apply one window; False if events overdraw a cell."""
        rng = self.rng
        hits = int(rng.binomial(window, min(law["total_active"], 1.0)))
        if hits == 0:
            self._log_window(window, None)
            return True
        pair_counts = rng.multinomial(hits, law["pvals"])
        drawn = np.nonzero(pair_counts)[0]
        event_counts = pair_counts[drawn].astype(np.int64, copy=False)
        if self._num_branches == 1:
            pairs, produced = drawn, event_counts
            out_x, out_y = law["out_x"][drawn], law["out_y"][drawn]
        else:
            branch_counts = rng.multinomial(event_counts, law["branch_pvals"][drawn])
            event_rows, branch = np.nonzero(branch_counts)
            produced = branch_counts[event_rows, branch]
            pairs = drawn[event_rows]
            rows = law["rows"][pairs]
            out_x = law["base_x"][pairs] + self._branch_initiator[rows, branch]
            out_y = law["base_y"][pairs] + self._branch_responder[rows, branch]

        # Matching semantics: the drawn events must be realizable on *distinct*
        # agents -- no cell may supply more initiators+responders than it holds.
        # Checking consumption (not just final non-negativity) is what keeps
        # every single-interaction invariant intact: a window is then a batch
        # of disjoint interactions, each of which preserves the invariant.
        # Final non-negativity follows, since additions only help.
        shape = self._matrix.shape
        consumed = pair_flows(shape, law["flat_x"][drawn], law["flat_y"][drawn], event_counts)
        if (consumed > self._matrix).any():
            return False
        before = self._matrix
        self._matrix = before + pair_flows(shape, out_x, out_y, produced) - consumed
        self._law_cache = None
        if self.window_log is not None:
            cell_x, cell_y = law["flat_x"][pairs], law["flat_y"][pairs]
            events = np.column_stack([  # (class, state) = divmod(flat index, S)
                *np.divmod(cell_x, shape[1]), *np.divmod(cell_y, shape[1]),
                out_x % shape[1], out_y % shape[1], produced,
            ]).astype(np.int64)
            self._log_window(window, events, before=before)
        return True

    def _log_window(
        self, window: int, events: Optional[np.ndarray], before: Optional[np.ndarray] = None
    ) -> None:
        if self.window_log is None:
            return
        if events is None:
            events = np.zeros((0, 7), dtype=np.int64)
        self.window_log.append({
            "window": int(window),
            "counts_before": (self._matrix if before is None else before).copy(),
            "counts_after": self._matrix.copy(),
            "events": events,
        })

    # -- stepping --------------------------------------------------------------------

    def step(self) -> None:
        """Execute a single interaction (the exact window = 1 law)."""
        self.run(1)

    def _steps(self, num_interactions: int) -> None:
        """Execute exactly ``num_interactions`` interactions, null draws included."""
        remaining = int(num_interactions)
        while remaining > 0:
            consumed = self._advance(remaining)
            self.interactions += consumed
            remaining -= consumed

    # -- faults ----------------------------------------------------------------------

    def apply_fault(self, agent_ids: np.ndarray, state_indices: np.ndarray) -> None:
        """Overwrite the states of ``agent_ids`` with ``state_indices``.

        The fault path of :class:`~repro.adversary.campaign.FaultCampaign`,
        translated to counts: the victims' *current* states are unknown
        without identities, but within a weight class agents are exchangeable,
        so removing ``k`` victims is exactly a multivariate hypergeometric
        draw from the class's count row; the injected states then land by
        histogram.  When a burst covers a whole class (reseeds, full-population
        corruption) the removal is total and hence deterministic, which is why
        fault-checkpoint digests match the compiled engine bit for bit on
        reseed campaigns (see ``tests/adversary/test_campaign.py``); partial
        bursts are distribution-equivalent.  The removal consumes ``self.rng``,
        never the campaign's per-event generator, so injected fault payloads
        stay bit-identical across engines.
        """
        agent_ids, state_indices = self._check_fault(agent_ids, state_indices)
        if len(agent_ids) == 0:
            return
        self._seed_indices = None
        self._law_cache = None
        classes = self._class_of(agent_ids)
        injected = np.zeros_like(self._matrix)
        np.add.at(injected, (classes, state_indices), 1)
        for group in np.unique(classes):
            victims = int((classes == group).sum())
            removed = self.rng.multivariate_hypergeometric(self._matrix[group], victims)
            self._matrix[group] -= removed
        self._matrix += injected

    # -- checkpointing -----------------------------------------------------------------

    def _checkpoint_guard(self) -> None:
        """Reject state captures the engine cannot resume bit-identically."""
        if self._byzantine is not None:
            raise RuntimeError(
                "byzantine runs are not checkpointable: the overlay extends "
                "the histogram per run, outside the captured state"
            )
        if self._class_weights.size != 1:
            raise RuntimeError(
                "weighted-scheduler runs are not checkpointable: the class "
                "partition is a closure the checkpoint cannot serialize"
            )

    def checkpoint_state(self) -> Dict:
        """JSON-able snapshot from which :meth:`restore_checkpoint_state`
        resumes **bit-identically**.

        The count vector plus the interaction counter plus the PCG64
        bit-generator state is the engine's whole dynamic state: the
        law/structure caches are pure functions of the counts, rebuilt
        deterministically on the next window.  The window sizing
        (``drift_cap``, and ``max_window``: none) is recorded too, since it
        shapes the remaining random stream.  Consumes no randomness.
        """
        self._checkpoint_guard()
        return {
            "engine": "counts",
            "interactions": int(self.interactions),
            "counts": [int(value) for value in self.state_counts],
            "drift_cap": DEFAULT_DRIFT_CAP,
            "max_window": None,
            "bit_generator": self.rng.bit_generator.state,
        }

    def restore_checkpoint_state(self, payload: Dict) -> None:
        """Inverse of :meth:`checkpoint_state` (validates shape and sums)."""
        generator_state = self._check_checkpoint(payload)
        counts = self.compiled.checked_counts(payload["counts"])
        if payload["drift_cap"] != DEFAULT_DRIFT_CAP or payload["max_window"] is not None:
            raise ValueError(
                f"checkpoint window sizing (drift_cap={payload['drift_cap']!r}, "
                f"max_window={payload['max_window']!r}) is not the engine's "
                f"(drift_cap={DEFAULT_DRIFT_CAP!r}, max_window=None)"
            )
        self._matrix = counts.reshape(1, -1)
        self.interactions = int(payload["interactions"])
        self.rng.bit_generator.state = generator_state
        self._law_cache = None
        self._structure_cache = None
        self._seed_indices = None


__all__ = ["CountsSimulation", "DEFAULT_DRIFT_CAP", "active_pair_tables"]
