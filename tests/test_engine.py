"""One-round protocol engine: constructors, execution, the success bound."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from nlqclab import engine, pauli, qudit, surgery, teleport
from nlqclab.errors import CapExceeded, DimensionMismatch, IOFailure


SWAP_GATES = [("CNOT", (0, 1), 1), ("CNOT", (1, 0), 1), ("CNOT", (0, 1), 1)]


def swap_circuit(d=2):
    if d == 2:
        return pauli.CliffordCircuit.from_gate_list(2, 2, SWAP_GATES)
    raise ValueError


def choi_distance(protocol, u):
    """Trace distance between the protocol's Choi matrix and the unitary u's."""
    j = engine.program_choi(protocol.program)
    return qudit.trace_distance_matrices(j, qudit.choi_of_unitary(u))


# ---------------------------------------------------------------------------
# wires
# ---------------------------------------------------------------------------

def test_real_matrix_apply_matches_the_complex_path():
    # the real path runs one real GEMM on the float view of the complex tensor
    rng = np.random.default_rng(21)
    d, regs = 3, ["a", "b", "c", "e"]
    t = rng.normal(size=(d,) * 4 + (2,)) + 1j * rng.normal(size=(d,) * 4 + (2,))
    wires = (engine.Wire(d, t, regs), engine.Wire(d, np.moveaxis(t, 0, 3), regs))
    assert not wires[1].tensor.flags.c_contiguous
    for names in (["a"], ["a", "b"], ["c", "a"], ["e", "b"]):
        m = rng.normal(size=(d ** len(names),) * 2)
        for w in wires:
            real = w.apply(m, names).tensor
            assert np.abs(real - w.apply(m.astype(complex), names).tensor).max() < 1e-14


@pytest.mark.parametrize("d", [2, 3, 5])
def test_bell_rotation_matches_the_bell_vector_contractions(d):
    # the pair in reversed, non-adjacent positions of a three-column tensor:
    # every child against its own contraction, and no weight lost
    rng = np.random.default_rng(40 + d)
    shape = (d,) * 4 + (3,)
    wire = engine.Wire(d, rng.normal(size=shape) + 1j * rng.normal(size=shape), ["a", "b", "c", "e"])
    # the basis is built once per d, and its rows are the conjugated Bell
    # vectors in the order of the wire's outcomes
    basis = qudit.bell_basis(d)
    assert basis is qudit.bell_basis(d) and not basis.flags.writeable
    for row, (a, b) in zip(basis, wire.bell_outcomes(), strict=True):
        assert np.array_equal(row, qudit.bell_basis_vector(d, a, b).conj())
    project = wire.project_bell(("e", "b"))
    total = 0.0
    for a, b in wire.bell_outcomes():
        vec = qudit.bell_basis_vector(d, a, b).conj().reshape(d, d)
        child = project((a, b))
        assert child.regs == ["a", "c"]
        assert np.abs(child.tensor - np.einsum("eb,abcek->ack", vec, wire.tensor)).max() < 1e-12
        total += child.squared_norm()
    assert abs(total - wire.squared_norm()) < 1e-12 * wire.squared_norm()


@pytest.mark.parametrize("seed", range(3))
def test_forced_sampled_and_enumerated_bell_children_agree(seed):
    # a qutrit protocol with two Bell measurements: the branch of one outcome
    # is the same wire whether it is drawn, forced or enumerated
    program = engine.clifford_protocol(pauli.random_clifford(4, 3, seed=seed), (2, 2)).program
    gen = np.random.default_rng(200 + seed)
    psi = gen.normal(size=3**4) + 1j * gen.normal(size=3**4)
    psi /= np.linalg.norm(psi)
    sampled = engine.sample_branch(program, psi, rng=np.random.default_rng(seed))
    forced = engine.sample_branch(program, psi, forced=sampled.outcomes)
    (enumerated,) = [
        br for br in engine.run_program(program, psi.reshape(-1, 1)) if br.outcomes == sampled.outcomes
    ]
    for br in (forced, enumerated):
        assert br.wire.regs == sampled.wire.regs
        assert np.array_equal(br.wire.tensor, sampled.wire.tensor)


# ---------------------------------------------------------------------------
# constructors and exactness
# ---------------------------------------------------------------------------

def test_identity_circuit_uses_no_pairs():
    c = pauli.CliffordCircuit(2, 2, ())
    p = engine.clifford_protocol(c, (1, 1))
    assert p.meta["pairs"] == 0
    assert choi_distance(p, np.eye(4)) < 1e-9


def test_local_unitary_needs_no_resource():
    c = pauli.CliffordCircuit.from_gate_list(2, 2, [("X", (0,), 1)])
    p = engine.clifford_protocol(c, (1, 1))
    assert p.meta["pairs"] == 0
    assert choi_distance(p, c.unitary()) < 1e-9


def test_swap_protocol_is_exact_on_every_branch():
    c = swap_circuit()
    p = engine.clifford_protocol(c, (1, 1))
    assert p.meta["pairs"] == 1 and p.meta["tele_side"] == 0
    maxd, ptot, branches = engine.branch_exactness(p, c.unitary())
    assert branches == 4
    assert maxd < 1e-9 and abs(ptot - 1) < 1e-9
    # the right core is the smaller one here, so it is teleported leftward
    c = pauli.CliffordCircuit.from_gate_list(2, 3, [("CNOT", (0, 2), 1), ("CNOT", (1, 2), 1)])
    p = engine.clifford_protocol(c, (2, 1))
    assert p.meta["pairs"] == 1 and p.meta["tele_side"] == 1
    maxd, ptot, branches = engine.branch_exactness(p, c.unitary())
    assert branches == 4
    assert maxd < 1e-9 and abs(ptot - 1) < 1e-9


def test_qutrit_cnot_protocol_and_accounting():
    c = pauli.CliffordCircuit.from_gate_list(3, 2, [("CNOT", (0, 1), 1)])
    p = engine.clifford_protocol(c, (1, 1))
    maxd, ptot, _ = engine.branch_exactness(p, c.unitary())
    assert maxd < 1e-9 and abs(ptot - 1) < 1e-9
    account = p.resource.account()
    assert account.ebit_count == 1
    assert abs(account.mutual_information_ebits - 2 * np.log2(3)) < 1e-6


def test_clifford_split_sides_are_checked():
    c = pauli.random_clifford(2, 2, seed=1)
    for split in ((5, -3), (-1, 3), (3, -1)):
        with pytest.raises(DimensionMismatch, match="negative side"):
            engine.clifford_protocol(c, split)
    with pytest.raises(DimensionMismatch, match="does not cover"):
        engine.clifford_protocol(c, (2, 1))


@pytest.mark.parametrize(
    "d,n,n0", [(2, 2, 1), (2, 3, 2), (2, 4, 2), (3, 3, 1), (3, 4, 2), (5, 2, 1)]
)
def test_random_clifford_protocols_exact(d, n, n0):
    for seed in range(2):
        c = pauli.random_clifford(n, d, seed=977 * d + 31 * n + seed)
        p = engine.clifford_protocol(c, (n0, n - n0))
        maxd, ptot, _ = engine.branch_exactness(p, c.unitary())
        dec = p.meta["decomposition"]
        assert maxd < 1e-9
        assert abs(ptot - 1) < 1e-9
        assert p.meta["pairs"] == min(dec.n0_core, dec.n1_core)


def test_long_program_runs_without_recursion_limit():
    theta = 1e-3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    ops = tuple(engine.GateOp(rot, ("a",)) for _ in range(1200))
    program = engine.Program(2, ("a",), ops, ("a",))
    (branch,) = engine.run_program(program, np.eye(2))
    c, s = np.cos(1200 * theta), np.sin(1200 * theta)
    m = engine.branch_map(branch, program.out_regs)
    assert np.abs(m - np.array([[c, -s], [s, c]])).max() < 1e-9


def test_programs_are_a_resource_append_then_the_stages():
    # split (1, 1) teleports the left core (t = 0); the qutrit circuit at
    # split (2, 1) has the smaller core on the right (t = 1)
    c0 = pauli.random_clifford(2, 2, seed=3)
    c1 = pauli.CliffordCircuit.from_gate_list(
        3, 3, [("H", (0,), 1), ("CNOT", (0, 2), 1), ("CNOT", (1, 2), 1), ("S", (2,), 1)]
    )
    protocols = [
        engine.clifford_protocol(c0, (1, 1)),
        engine.clifford_protocol(c1, (2, 1)),
        engine.bk_protocol(qudit.cnot(2), (1, 1), 2),
    ]
    assert [p.meta.get("tele_side") for p in protocols] == [0, 1, None]
    for p in protocols:
        k = p.meta["pairs"]
        assert k > 0
        head, *rest = p.program.ops
        assert isinstance(head, engine.AppendOp)
        assert head.names == tuple(f"L_{i}" for i in range(k)) + tuple(f"R_{i}" for i in range(k))
        assert head.resource is p.resource and head.resource.pair_count == k
        assert np.array_equal(head.resource.state, engine.Resource.pairs(p.d, k).state)
        assert len(p.stages) == 4
        assert tuple(rest) == tuple(op for stage in p.stages for op in stage)
    assert [f.name for f in dataclasses.fields(engine.Program)] == ["d", "in_regs", "ops", "out_regs"]
    assert not hasattr(engine, "Stage")


def test_reduction_peels_one_sided_gates():
    gates = [("H", (0,), 1), ("CNOT", (0, 1), 1), ("S", (1,), 1)]
    c = pauli.CliffordCircuit.from_gate_list(2, 2, gates)
    dec = engine.reduce_circuit(c, 1)
    assert len(dec.pre_left.gates) == 1
    assert len(dec.post_right.gates) == 1
    assert len(dec.core.gates) == 1
    assert dec.core0 == (0,) and dec.core1 == (1,)


def test_execute_with_reference_register():
    c = pauli.CliffordCircuit.from_gate_list(2, 2, [("CNOT", (0, 1), 1)])
    p = engine.clifford_protocol(c, (1, 1))
    amp = np.zeros(8)
    amp[0] = amp[3] = 1 / np.sqrt(2)
    rho = engine.program_density(p.program, amp, ["ref_0"])
    u = qudit.embed_operator(c.unitary(), 2, 3, (0, 1))
    want = u @ np.outer(amp, amp) @ u.conj().T
    assert np.abs(rho - want).max() < 1e-9


def test_forced_execution_is_normalized():
    # the forced branch's trace is its probability, and it holds the target's output
    c = swap_circuit()
    p = engine.clifford_protocol(c, (1, 1))
    st = qudit.DenseState(2, 2, np.eye(4)[2])
    branch = engine.sample_branch(p.program, st.amplitudes, {"x_0": (1, 1)})
    rho = branch.wire.density_keeping(p.program.out_regs)
    prob = branch.wire.squared_norm()
    assert abs(np.trace(rho).real - prob) < 1e-12 and abs(prob - 0.25) < 1e-9
    out = c.unitary() @ st.amplitudes
    assert np.abs(rho / prob - np.outer(out, out.conj())).max() < 1e-9


def test_choi_paths_agree():
    # oracle: the rank-1 Chois vec(M) vec(M)^dagger / dim of the branch maps
    c = pauli.random_clifford(2, 2, seed=3)
    p = engine.clifford_protocol(c, (1, 1))
    want = np.zeros((16, 16), dtype=complex)
    for _, m in engine.sweep_branch_maps(p.program):
        v = m.reshape(-1)
        want += np.outer(v, v.conj()) / 4
    assert np.abs(engine.program_choi(p.program) - want).max() < 1e-10


def test_batch_budget_bounds_the_sweep_memory(monkeypatch):
    # at 2^14 entries the surgery program's 12-register wire fits 4 columns,
    # but each Bell measurement holds the wire, its moved copy and the
    # rotation at once, so the batch must leave room for all three; only
    # the branch maps the sweep returns come on top of the budget
    monkeypatch.setattr(engine, "BATCH_BUDGET", 2**14)
    circuit = pauli.random_clifford(4, 2, seed=77)
    program = surgery.clifford_surgery(surgery.clifford_normal_form(circuit, (2, 2))).program
    list(engine.sweep_branch_maps(program))  # imports and caches, built once
    tracemalloc.start()
    try:
        maps = [m for _, m in engine.sweep_branch_maps(program)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * engine.BATCH_BUDGET + sum(m.nbytes for m in maps)


def test_verify_identity_against_swap_distance():
    # oracle: Chois are rank one, distance sqrt(1 - |tr(SWAP)/4|^2)
    ident = pauli.CliffordCircuit(2, 2, ())
    p = engine.clifford_protocol(ident, (1, 1))
    swap = swap_circuit().unitary()
    assert abs(choi_distance(p, swap) - np.sqrt(3) / 2) < 1e-9


# ---------------------------------------------------------------------------
# ops are data
# ---------------------------------------------------------------------------

def test_every_op_is_data():
    # a ledger counts a program's gates from its ops, which a closure would hide
    circuit = pauli.random_clifford(3, 2, seed=5)
    task = surgery.OneSidedTask(2, 1, {0: qudit.hadamard(2), 1: np.diag([1, np.exp(0.4j)])})
    protocol = surgery.OneSidedProtocol(task, 1)
    programs = [
        engine.clifford_protocol(circuit, (1, 2)).program,
        engine.bk_protocol(qudit.cnot(2), (2, 0), 2).program,
        protocol.program(1),
        *(lp.program for lp in surgery.pbt_surgery(task, protocol, 2).values()),
        surgery.clifford_surgery(surgery.clifford_normal_form(circuit, (1, 2))).program,
    ]
    op_lists = [p.ops for p in programs] + [teleport._teleport_ops(("s", "t"), (("n", "f"), ("m", "g")))]
    for ops in op_lists:
        for op in ops:
            for f in dataclasses.fields(op):
                assert not callable(getattr(op, f.name)), f"{type(op).__name__}.{f.name}"


def test_unknown_op_is_rejected():
    program = engine.Program(2, ("a",), (object(),), ("a",))
    with pytest.raises(DimensionMismatch, match="unknown op"):
        list(engine.run_program(program, np.eye(2)))


def test_circuit_op_needs_one_target_per_register():
    # a 1-qudit X on no targets would be a silent no-op on the stabilizer wire
    x = pauli.CliffordCircuit.from_gate_list(2, 1, [("X", (0,), 1)])
    for targets in ((), ("a", "b")):
        with pytest.raises(DimensionMismatch):
            engine.CircuitOp(x, targets)


def test_bell_measurement_needs_two_distinct_registers():
    for pair in (("a", "a"), ("a",), ("a", "b", "c")):
        with pytest.raises(DimensionMismatch):
            engine.BellMeasureOp(pair, "x")


def test_appended_state_must_fit_its_registers():
    # one name per resource register, checked by the op; the resource's d,
    # checked by the program
    for resource in (engine.Resource(2, 3, 0, np.eye(8)[0]), engine.Resource(2, 1, 0, np.eye(2)[0])):
        with pytest.raises(DimensionMismatch):
            engine.AppendOp(("b", "c"), resource)
    op = engine.AppendOp(("b", "c"), engine.Resource.pairs(3, 1))
    with pytest.raises(DimensionMismatch, match="d=2"):
        engine.Program(2, ("a",), (op,), ("a", "b", "c"))


def test_pair_count_is_set_by_pairs_alone():
    state = engine.Resource.pairs(2, 1).state
    with pytest.raises(TypeError):
        engine.Resource(2, 1, 1, state, pair_count=1)
    assert engine.Resource(2, 1, 1, state).pair_count is None
    assert engine.Resource.pairs(2, 1).pair_count == 1


# ---------------------------------------------------------------------------
# BK protocol
# ---------------------------------------------------------------------------

def haar_unitary(dim, rng):
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_bk_reduced_matches_protocol_path():
    for u in (np.eye(4, dtype=complex), qudit.cnot(2)):
        for n in (1, 2):
            j_red = engine.bk_choi(u, (1, 1), n)
            j_pro = engine.program_choi(engine.bk_protocol(u, (1, 1), n).program)
            assert np.abs(j_red - j_pro).max() < 1e-9
            assert abs(np.trace(j_red).real - 1) < 1e-9
    # n0 = 2 undoes two teleported qudits per port, n0 = 1 one of three
    rng = np.random.default_rng(31)
    for split in ((2, 1), (1, 2)):
        u = haar_unitary(8, rng)
        j_pro = engine.program_choi(engine.bk_protocol(u, split, 1).program)
        assert np.abs(engine.bk_choi(u, split, 1) - j_pro).max() < 1e-12


def test_bk_program_without_one_undo_is_far_from_bk_choi():
    # zeroing port 0's undo leaves the Bell Pauli on the 1/N of branches that
    # select port 0.  One qubit at N = 3 puts the mutant 0.125 away; at d_a = 4
    # the port channel is too noisy to show it, and at N = 1 it is completely
    # depolarizing, which no Pauli changes.
    u = haar_unitary(2, np.random.default_rng(32))
    program = engine.bk_protocol(u, (1, 0), 3).program
    first = next(op for op in program.ops if isinstance(op, engine.PauliCorrectionOp))
    mutant = dataclasses.replace(first, frame=0 * first.frame)
    ops = tuple(mutant if op is first else op for op in program.ops)
    j = engine.program_choi(dataclasses.replace(program, ops=ops))
    assert qudit.trace_distance_matrices(j, engine.bk_choi(u, (1, 0), 3)) > 0.1


def test_bk_reduced_path_reaches_eight_ports_without_a_pgm(monkeypatch):
    def no_pgm(*args, **kwargs):
        raise AssertionError("the reduced path built a dense PGM")

    monkeypatch.setattr(teleport, "build_pgm", no_pgm)
    for u in (np.eye(4, dtype=complex), qudit.cnot(2)):
        j = engine.bk_choi(u, (1, 1), 8)
        dist = qudit.trace_distance_matrices(j, qudit.choi_of_unitary(u))
        assert abs(dist - 0.560041) < 1e-6
        assert abs(dist - (1 - teleport.pgm_fidelity(4, 8))) < 1e-12


@pytest.mark.parametrize("seed", range(3))
def test_sampled_port_outcome_weighs_as_its_forced_branch(seed):
    program = engine.bk_protocol(qudit.cnot(2), (1, 1), 2).program
    gen = np.random.default_rng(100 + seed)
    psi = gen.normal(size=4) + 1j * gen.normal(size=4)
    psi /= np.linalg.norm(psi)
    sampled = engine.sample_branch(program, psi, rng=np.random.default_rng(seed))
    forced = engine.sample_branch(program, psi, forced=sampled.outcomes)
    assert forced.outcomes == sampled.outcomes
    assert abs(sampled.wire.squared_norm() - forced.wire.squared_norm()) < 1e-12

    # the same draws by hand: one rng.choice per measurement over the Born
    # weights of its outcomes, the Bell outcome first, then the port; every
    # outcome of either has nonzero weight on these inputs
    def weight(x, k):
        return engine.sample_branch(program, psi, {"x_0": x, "port": k}).wire.squared_norm()

    rng = np.random.default_rng(seed)
    bell = [(a, b) for a in range(2) for b in range(2)]
    p = np.array([weight(ab, 0) + weight(ab, 1) for ab in bell])
    x = bell[rng.choice(4, p=p / p.sum())]
    p = np.array([weight(x, k) for k in range(2)])
    assert sampled.outcomes == {"x_0": x, "port": int(rng.choice(2, p=p / p.sum()))}


def test_bk_identity_single_port_equals_pbt():
    j = engine.bk_choi(np.eye(4, dtype=complex), (1, 1), 1)
    params = teleport.PBTParams(4, 1)
    rep = teleport.pbt_channel(params, teleport.build_pgm(params))
    assert np.abs(j - rep.choi).max() < 1e-9


def test_bk_distance_decreases_with_ports():
    for u in (np.eye(4, dtype=complex), qudit.cnot(2)):
        jt = qudit.choi_of_unitary(u)
        dists = [
            qudit.trace_distance_matrices(engine.bk_choi(u, (1, 1), n), jt)
            for n in (2, 4)
        ]
        assert dists[1] < dists[0]


def test_bk_port_relabeling_invariance():
    # permuting which port is which cannot change anything: the reduced
    # per-port Chois are identical across ports
    inst = teleport.build_pgm(teleport.PBTParams(4, 3))
    chois = teleport.reduced_port_choi(inst)
    for c in chois[1:]:
        assert np.abs(c - chois[0]).max() < 1e-10


# ---------------------------------------------------------------------------
# product replacement bound
# ---------------------------------------------------------------------------

def test_unentangled_protocol_keeps_probability_one():
    c = pauli.CliffordCircuit.from_gate_list(2, 2, [("X", (0,), 1)])
    rep = engine.product_replacement_check(engine.clifford_protocol(c, (1, 1)))
    assert rep.mutual_information_nats < 1e-9
    assert abs(rep.p_suc_product - 1) < 1e-9
    assert rep.passed and rep.passed_full


def test_swap_protocol_saturates_full_mutual_information():
    """Teleportation consumes everything: -ln p equals I, not I/2.

    p_suc(product) = 1/4 for one consumed pair at d = 2, an exact value
    checked against the closed form; the half-I variant is genuinely
    violated here while the full-I (relative entropy) bound saturates.
    """
    p = engine.clifford_protocol(swap_circuit(), (1, 1))
    rep = engine.product_replacement_check(p)
    assert abs(rep.p_suc_original - 1) < 1e-9
    assert abs(rep.p_suc_product - 0.25) < 1e-9
    assert abs(rep.mutual_information_nats - 2 * np.log(2)) < 1e-9
    assert rep.passed_full and not rep.passed


@pytest.mark.parametrize("d", [2, 3])
def test_full_information_bound_holds_on_seeded_protocols(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        c = pauli.random_clifford(2, d, seed=int(rng.integers(2**31)))
        rep = engine.product_replacement_check(engine.clifford_protocol(c, (1, 1)))
        assert abs(rep.p_suc_original - 1) < 1e-9
        assert rep.passed_full


@pytest.mark.parametrize("alpha", [0.3, np.pi / 4, 1.2])
def test_partially_entangled_resource_matches_eigen_ensemble(alpha):
    """cos a|00> + sin a|11> spliced into the SWAP protocol.

    Oracle: rho_L (x) rho_R is the ensemble of |ij> with weight w_i w_j,
    w = (cos^2 a, sin^2 a); each member runs through the protocol and its
    success probability is weighted.  I(L:R) = 2 h(cos^2 a) nats.
    """
    c, s = np.cos(alpha), np.sin(alpha)
    swap = engine.clifford_protocol(swap_circuit(), (1, 1))
    resource = engine.Resource(2, 1, 1, np.array([c, 0, 0, s], dtype=complex))
    p = engine.assemble_protocol(
        2, 1, 1, resource, swap.stages, swap.program.out_regs, target=swap.target,
    )
    task = engine.projector_task(p.target)
    prog = p.program
    w = (c**2, s**2)
    want = 0.0
    for i in range(2):
        for j in range(2):
            vec = np.zeros(4, dtype=complex)
            vec[2 * i + j] = 1.0
            ops = (engine.AppendOp(prog.ops[0].names, engine.Resource(2, 1, 1, vec)),) + prog.ops[1:]
            want += w[i] * w[j] * task(engine.program_choi(dataclasses.replace(prog, ops=ops)))
    rep = engine.product_replacement_check(p)
    assert abs(rep.p_suc_product - want) < 1e-12
    # one pair is teleported through: entanglement fidelity |<Phi+|psi>|^2
    assert abs(rep.p_suc_original - (c + s) ** 2 / 2) < 1e-12
    h = -(w[0] * np.log(w[0]) + w[1] * np.log(w[1]))
    assert abs(p.resource.account().mutual_information_nats - 2 * h) < 1e-12


def test_bk_resource_account_needs_no_full_density():
    # 9 pairs: the full density matrix of the resource would have 2^36 entries
    p = engine.bk_protocol(qudit.cnot(2), (1, 1), 4)
    account = p.resource.account()
    assert p.meta["pairs"] == account.ebit_count == 9
    assert abs(account.mutual_information_ebits - 18) < 1e-9


def test_resource_size_is_capped_before_allocating():
    # N = 6 passes the port-measurement cap (4^7 = 2^14), but its 13 pairs
    # would need 2^26 amplitudes
    with pytest.raises(CapExceeded, match="state entries"):
        engine.bk_protocol(qudit.cnot(2), (1, 1), 6)
    with pytest.raises(CapExceeded):
        engine.Resource.pairs(2, 12)


def test_program_density_is_capped_before_allocating():
    # 12 kept qubits: a density of 2^24 entries, past the 2^22 cap, while
    # the state itself has 2^12
    names = tuple(f"q_{i}" for i in range(12))
    with pytest.raises(CapExceeded, match="density on 12 registers"):
        engine.program_density(engine.Program(2, names, (), names), np.eye(2**12)[0])


def test_resource_state_is_checked_when_built():
    with pytest.raises(DimensionMismatch, match="3 amplitudes, expected 4"):
        engine.Resource(2, 1, 1, np.ones(3))
    with pytest.raises(DimensionMismatch, match="norm"):
        engine.Resource(2, 1, 1, np.array([1, 0, 0, 1], dtype=complex))


def test_resource_pairs_equal_the_product_of_bell_pairs():
    # bit for bit: k pairs |Phi+>, regrouped into the order L_1..L_k R_1..R_k
    for d, k in ((2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (5, 2), (7, 1)):
        vec = np.ones(1, dtype=complex)
        for _ in range(k):
            vec = np.kron(vec, qudit.bell_pair(d).amplitudes)
        order = [2 * i for i in range(k)] + [2 * i + 1 for i in range(k)]
        want = np.transpose(vec.reshape((d,) * (2 * k)), order).reshape(-1)
        assert np.array_equal(engine.Resource.pairs(d, k).state, want)


def test_resource_account_pairs_consistency():
    for d, k in ((2, 2), (3, 1), (5, 1)):
        account = engine.Resource.pairs(d, k).account()
        assert account.ebit_count == k
        assert abs(account.mutual_information_ebits - 2 * k * np.log2(d)) < 1e-6


def test_protocol_json_round_trip():
    doc = {
        "n0": 1,
        "n1": 1,
        "split_circuit": {
            "d": 2,
            "n": 2,
            "gates": [{"g": g, "q": list(q), "pow": p} for g, q, p in SWAP_GATES],
        },
    }
    p = engine.load_protocol_json(doc)
    maxd, _, _ = engine.branch_exactness(p, swap_circuit().unitary())
    assert maxd < 1e-9


def test_bk_error_non_increasing_on_port_grid():
    u = qudit.cnot(2)
    jt = qudit.choi_of_unitary(u)
    dists = [
        qudit.trace_distance_matrices(engine.bk_choi(u, (1, 1), n), jt)
        for n in (1, 2, 3, 4)
    ]
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


def test_bk_rejects_a_non_unitary_target():
    # np.ones would give a "Choi" matrix of trace 1.19
    for build in (engine.bk_choi, engine.bk_protocol):
        with pytest.raises(DimensionMismatch, match="not unitary"):
            build(np.ones((4, 4)), (1, 1), 2)
        with pytest.raises(DimensionMismatch, match="not unitary"):
            build(np.eye(4)[:, :2], (1, 1), 2)


def test_bk_identity_two_ports_reduces_to_pbt():
    # with the target trivial, the whole protocol is teleport-and-return,
    # so its channel coincides with the bare port channel
    j = engine.bk_choi(np.eye(4, dtype=complex), (1, 1), 2)
    params = teleport.PBTParams(4, 2)
    rep = teleport.pbt_channel(params, teleport.build_pgm(params))
    assert np.abs(j - rep.choi).max() < 1e-9


def test_bk_works_over_qutrits():
    u = qudit.cnot(3)
    jt = qudit.choi_of_unitary(u)
    d1 = qudit.trace_distance_matrices(engine.bk_choi(u, (1, 1), 1), jt)
    d2 = qudit.trace_distance_matrices(engine.bk_choi(u, (1, 1), 2), jt)
    assert d2 < d1
    # cross-check the reduced path against the full protocol at N=1
    j_red = engine.bk_choi(u, (1, 1), 1)
    j_pro = engine.program_choi(engine.bk_protocol(u, (1, 1), 1).program)
    assert np.abs(j_red - j_pro).max() < 1e-9


def test_malformed_protocol_document_rejected():
    with pytest.raises(IOFailure, match="invalid protocol JSON"):
        engine.load_protocol_json("{bad")
    with pytest.raises(IOFailure):
        engine.load_protocol_json({"n0": 1})
    with pytest.raises(IOFailure):
        engine.load_protocol_json(
            {"n0": 2, "n1": 1, "split_circuit": {"d": 2, "n": 2, "gates": []}}
        )
    with pytest.raises(IOFailure, match="unknown gate name 'custom'"):
        engine.load_protocol_json(
            {"n0": 1, "n1": 1, "split_circuit": {"d": 2, "n": 2, "gates": [{"g": "custom", "q": [0]}]}}
        )


def test_protocol_document_resource_declaration_checked():
    doc = {
        "n0": 1, "n1": 1, "resource": {"pairs": 2},
        "split_circuit": {"d": 2, "n": 2,
                          "gates": [{"g": "CNOT", "q": [0, 1], "pow": 1}]},
    }
    with pytest.raises(IOFailure):
        engine.load_protocol_json(doc)
    doc["resource"]["pairs"] = 1
    assert engine.load_protocol_json(doc).meta["pairs"] == 1
