"""Garden-hose strategies for f-routing and the tracking-register transform.

A strategy shares E entangled "pipes" between the two sides and, per
classical input, performs Bell measurements pairing up nodes: on the left
the nodes are Q (the carrier of the routed system) and the pipe ends
l_1..l_E, on the right r_1..r_E.  Following matched edges and pipes from Q
deterministically walks to an unmatched terminal node; the side of that
node is the routed side, and quantum mechanically the state of Q arrives
there up to a Pauli built from the broadcast measurement outcomes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import engine, qudit
from .errors import (
    CapExceeded, DimensionMismatch, IndexOutOfRange, IOFailure, MalformedMatching, MalformedProgram,
)

Q = "Q"


def left_node(i: int) -> str:
    return f"L{i}"


def right_node(i: int) -> str:
    return f"R{i}"


def _node_side(node: str) -> int:
    return 1 if node.startswith("R") else 0


def _pipe_index(node: str) -> int:
    return int(node[1:])


@dataclass(frozen=True, eq=False)
class GHStrategy:
    """Input-conditioned disjoint pair matchings over pipe ends."""

    pipes: int
    n_x: int
    n_y: int
    left_match: dict   # x value -> tuple of node pairs over {Q, L1..LE}
    right_match: dict  # y value -> tuple of node pairs over {R1..RE}

    def __post_init__(self):
        for x in range(2**self.n_x):
            self._check_pairs(self.left_match.get(x, ()), left=True, label=f"x={x}")
        for y in range(2**self.n_y):
            self._check_pairs(self.right_match.get(y, ()), left=False, label=f"y={y}")

    def _check_pairs(self, pairs, left: bool, label: str):
        seen = set()
        for a, b in pairs:
            for node in (a, b):
                if node in seen:
                    raise MalformedMatching(f"node {node} reused at {label}")
                seen.add(node)
                if left and _node_side(node) == 1:
                    raise MalformedMatching(f"right node {node} in a left matching")
                if not left and (_node_side(node) == 0):
                    raise MalformedMatching(f"left node {node} in a right matching")
                if node != Q and not 1 <= _pipe_index(node) <= self.pipes:
                    raise MalformedMatching(f"node {node} outside 1..{self.pipes}")
            if a == b:
                raise MalformedMatching(f"pair ({a},{b}) is degenerate")

    def matched_pairs(self, x: int, y: int):
        if not (0 <= x < 2**self.n_x and 0 <= y < 2**self.n_y):
            raise IndexOutOfRange(f"input ({x}, {y}) outside [0, {2**self.n_x}) x [0, {2**self.n_y})")
        return tuple(self.left_match.get(x, ())) + tuple(self.right_match.get(y, ()))


@dataclass(frozen=True)
class RoutingOutcome:
    side: int
    terminal: str
    path: tuple


def gh_evaluate(strategy: GHStrategy, x: int, y: int) -> RoutingOutcome:
    """Deterministic path-following from Q; side 0 is left, 1 right."""
    partner = {}
    for a, b in strategy.matched_pairs(x, y):
        partner[a] = b
        partner[b] = a
    path = [Q]
    node = Q
    visited = {Q}
    for _ in range(2 * strategy.pipes + 1):
        if node not in partner:
            return RoutingOutcome(_node_side(node), node, tuple(path))
        mate = partner[node]
        # traverse the matched edge, then the mate's pipe to the other side
        i = _pipe_index(mate)
        node = right_node(i) if _node_side(mate) == 0 else left_node(i)
        path.extend([mate, node])
        if node in visited:
            raise MalformedMatching(f"cycle through {node}")
        visited.add(node)
    raise MalformedMatching("walk exceeded 2E+1 steps")


def gh_complexity(strategy: GHStrategy) -> dict:
    """Pipe count doubles as the garden-hose entanglement cost."""
    return {"pipes": strategy.pipes, "gh_cost": strategy.pipes}


def and_strategy() -> GHStrategy:
    """2-pipe protocol for AND: left measures (Q,l1) iff x=1, right
    measures (r1,r2) iff y=0."""
    return GHStrategy(
        pipes=2, n_x=1, n_y=1,
        left_match={0: (), 1: ((Q, left_node(1)),)},
        right_match={0: ((right_node(1), right_node(2)),), 1: ()},
    )


def or_strategy() -> GHStrategy:
    """3-pipe protocol for OR: Q is matched into pipe 1 when x=0 and pipe 3
    when x=1; the right bounces pipe 1 into pipe 2 iff y=0."""
    return GHStrategy(
        pipes=3, n_x=1, n_y=1,
        left_match={0: ((Q, left_node(1)),), 1: ((Q, left_node(3)),)},
        right_match={0: ((right_node(1), right_node(2)),), 1: ()},
    )


# ---------------------------------------------------------------------------
# quantum execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantumRoute:
    outcome: RoutingOutcome
    probability: float
    terminal_state: qudit.DenseState


def gh_quantum_execute(
    strategy: GHStrategy,
    x: int,
    y: int,
    q_state: qudit.DenseState,
    *,
    forced=None,
    rng: np.random.Generator | None = None,
) -> QuantumRoute:
    """Run the Bell measurements on real pipes and extract the terminal state.

    One engine program: the E pipes enter as Bell pairs on L1..LE, R1..RE,
    each matched pair is Bell-measured under its own label, the terminal
    gets the path correction and every other register is discarded, which
    checks that it is unentangled with the carrier.  ``forced`` maps
    measured pairs to outcomes; outcomes not given are drawn with ``rng``.
    The returned state has the correction applied, so it reproduces
    ``q_state`` exactly.
    """
    d = q_state.d
    if q_state.n != 1:
        raise MalformedMatching("the routed system is a single qudit")
    dim = d ** (1 + 2 * strategy.pipes)
    if dim > qudit.STATE_ENTRY_CAP:
        raise CapExceeded(f"state of {dim} entries exceeds cap {qudit.STATE_ENTRY_CAP}")
    route = gh_evaluate(strategy, x, y)
    pairs = tuple(tuple(pair) for pair in strategy.matched_pairs(x, y))

    halves = tuple(left_node(i) for i in range(1, strategy.pipes + 1))
    halves += tuple(right_node(i) for i in range(1, strategy.pipes + 1))
    measured = {node for pair in pairs for node in pair}
    untouched = tuple(nm for nm in (Q,) + halves if nm not in measured and nm != route.terminal)
    ops = (engine.AppendOp(halves, engine.Resource.pairs(d, strategy.pipes).state),)
    ops += tuple(engine.BellMeasureOp(pair, pair) for pair in pairs)
    ops += (
        engine.PauliCorrectionOp(pairs, (route.terminal,), _path_frame(route.path, pairs)),
        engine.DiscardOp(untouched),
    )
    program = engine.Program(d, (Q,), ops, (route.terminal,))
    branch = engine.sample_branch(program, q_state.amplitudes, forced, rng)
    try:
        vec = engine.branch_map(branch, program.out_regs)[:, 0]
    except DimensionMismatch as exc:
        raise MalformedMatching("terminal state is not pure") from exc

    prob = branch.wire.squared_norm()
    vec = vec / np.linalg.norm(vec)
    vec = vec * np.exp(-1j * np.angle(vec[np.argmax(np.abs(vec))]))
    phase = np.vdot(vec, q_state.amplitudes)
    if abs(phase) > 1e-12:
        vec = vec * phase / abs(phase)
    return QuantumRoute(route, prob, qudit.DenseState(d, 1, vec))


def _path_frame(path, pairs) -> np.ndarray:
    """Pauli frame that the teleport chain along the walk leaves on the terminal.

    Each hop measures (carrier, pipe-near-end); with the measured pair in
    that order the far end picks up X^a Z^b, but the recorded pair may be
    oriented either way, in which case the hop leaves X^-a Z^b.  Columns
    follow ``pairs``, the measurement labels.
    """
    frame = np.zeros((2, 2 * len(pairs)), dtype=np.int64)
    for i in range(0, len(path) - 1, 2):
        carrier, mate = path[i], path[i + 1]
        sign = 1 if (carrier, mate) in pairs else -1
        j = pairs.index((carrier, mate) if sign == 1 else (mate, carrier))
        frame[0, 2 * j], frame[1, 2 * j + 1] = sign, 1
    return frame


def exhaustive_table(strategy: GHStrategy):
    """Truth table of sides over all inputs."""
    table = {}
    for x in range(2**strategy.n_x):
        for y in range(2**strategy.n_y):
            table[(x, y)] = gh_evaluate(strategy, x, y).side
    return table


# ---------------------------------------------------------------------------
# strategy files
# ---------------------------------------------------------------------------

def load_strategy_json(source) -> GHStrategy:
    """{"E": int, "nx": int, "ny": int, "left": {...}, "right": {...}}.

    Matching keys are bit strings of the input value, pairs are node-name
    lists like [["Q", "L1"], ...].
    """
    doc = qudit.parse_json(source, "strategy")
    try:
        e = int(doc["E"])
        nx, ny = int(doc["nx"]), int(doc["ny"])
        left = {
            int(k, 2): tuple((str(a), str(b)) for a, b in v)
            for k, v in doc.get("left", {}).items()
        }
        right = {
            int(k, 2): tuple((str(a), str(b)) for a, b in v)
            for k, v in doc.get("right", {}).items()
        }
    except qudit.MALFORMED_DOCUMENT as exc:
        raise IOFailure(f"malformed strategy document: {exc}") from exc
    return GHStrategy(e, nx, ny, left, right)


def dump_strategy_json(strategy: GHStrategy) -> str:
    doc = {
        "E": strategy.pipes,
        "nx": strategy.n_x,
        "ny": strategy.n_y,
        "left": {
            format(x, f"0{strategy.n_x}b"): [list(p) for p in pairs]
            for x, pairs in sorted(strategy.left_match.items())
        },
        "right": {
            format(y, f"0{strategy.n_y}b"): [list(p) for p in pairs]
            for y, pairs in sorted(strategy.right_match.items())
        },
    }
    return json.dumps(doc, sort_keys=True)


# ---------------------------------------------------------------------------
# control programs and the tracking-register transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Instruction:
    """Conditional Bell measurement: fire when all literals hold."""

    phase: str                # "left" | "interaction" | "right"
    literals: tuple           # (("x"|"y", bit_index, value), ...)
    pair: tuple

    def visible(self) -> set:
        return {src for src, _, _ in self.literals}

    def fires(self, x: int, y: int) -> bool:
        for src, idx, val in self.literals:
            bits = x if src == "x" else y
            if (bits >> idx) & 1 != val:
                return False
        return True


_PHASE_VISIBILITY = {"left": {"x"}, "right": {"y"}, "interaction": {"x", "y"}}


@dataclass(frozen=True, eq=False)
class ControlProgram:
    """Measurement schedule split into phases."""

    pipes: int
    n_x: int
    n_y: int
    instructions: tuple

    def __post_init__(self):
        for ins in self.instructions:
            if ins.phase not in _PHASE_VISIBILITY:
                raise MalformedProgram(f"unknown phase {ins.phase!r}")
            if not ins.visible() <= _PHASE_VISIBILITY[ins.phase]:
                raise MalformedProgram(
                    f"{ins.phase} instruction reads inputs it cannot see"
                )

    def strategy_for(self, x: int, y: int):
        """Measured pairs per side for the given inputs."""
        left, right = [], []
        for ins in self.instructions:
            if not ins.fires(x, y):
                continue
            (side_nodes := left if all(_node_side(n) == 0 for n in ins.pair) else right).append(
                tuple(ins.pair)
            )
        return tuple(left), tuple(right)

    def evaluate(self, x: int, y: int) -> int:
        left, right = self.strategy_for(x, y)
        strat = GHStrategy(self.pipes, self.n_x, self.n_y, {x: left}, {y: right})
        return gh_evaluate(strat, x, y).side


def and_program() -> ControlProgram:
    return ControlProgram(
        pipes=2, n_x=1, n_y=1,
        instructions=(
            Instruction("left", (("x", 0, 1),), (Q, left_node(1))),
            Instruction("right", (("y", 0, 0),), (right_node(1), right_node(2))),
        ),
    )


def or_program() -> ControlProgram:
    return ControlProgram(
        pipes=3, n_x=1, n_y=1,
        instructions=(
            Instruction("left", (("x", 0, 0),), (Q, left_node(1))),
            Instruction("left", (("x", 0, 1),), (Q, left_node(3))),
            Instruction("right", (("y", 0, 0),), (right_node(1), right_node(2))),
        ),
    )


@dataclass(frozen=True, eq=False)
class TrackedProgram:
    """Pre-processed form: the same schedule plus a location register.

    The register stores which pipe currently carries Q (E+1 values
    including the initial "still at Q" state) in ceil(log2(E+2)) bits, plus
    a direct-send flag bit and a side bit.  The final decision reads only
    this register, so the interaction phase reduces to emitting the side.
    """

    base: ControlProgram
    tracking_bits: int

    @property
    def added_bits(self) -> int:
        return self.tracking_bits + 2  # the direct-send flag bit and the side bit

    def evaluate(self, x: int, y: int) -> int:
        """Walk the schedule keeping only the register as state."""
        partner = {}
        for ins in self.base.instructions:
            if ins.fires(x, y):
                a, b = ins.pair
                partner[a] = b
                partner[b] = a
        # register: (pipe or None for "at Q", side of the carrier node)
        reg_pipe = None
        reg_side = 0
        flag = None
        for _ in range(2 * self.base.pipes + 1):
            node = Q if reg_pipe is None else (
                left_node(reg_pipe) if reg_side == 0 else right_node(reg_pipe)
            )
            if node not in partner:
                flag = (1, reg_side)
                break
            mate = partner[node]
            reg_pipe = _pipe_index(mate)
            reg_side = 1 - _node_side(mate)
        if flag is None:
            raise MalformedProgram("tracking walk exceeded 2E+1 steps")
        return flag[1]


def interaction_to_preprocessed(program: ControlProgram) -> TrackedProgram:
    """Add the Q-location register; semantics are preserved exhaustively.

    The interaction phase of the result only reads the register (plus the
    two flag bits recording a direct send) and emits the side bit.  The
    register size is ceil(log2(E+2)) + 2 bits.
    """
    bits = int(np.ceil(np.log2(program.pipes + 2))) if program.pipes else 1
    return TrackedProgram(program, tracking_bits=bits)
