"""The block-only equitable witness, and the witness-first conjecture and
eq1 sweeps against their oracle-only reference."""

import pytest

from blockeq import cli, oracle
from blockeq.coloring import equitable_witness
from blockeq.gls import Coloring
from blockeq.graph import decompose, generate_block_graphs

import brutes

# graphs with n <= 10 that the witness colors equitably with omega colors;
# a weaker engine leaves more of the sweep to the oracle
WITNESSED_AT_OMEGA_UP_TO_10 = 2_031


def _omega(g):
    return decompose(g).max_block_size()


def _is_equitable_coloring(g, coloring, t):
    chk = oracle.check_coloring(g, coloring)
    return coloring.t == t and chk.proper and chk.equitable


class TestEquitableWitness:
    def test_colorings_at_omega_pass_the_checker(self, graphs_up_to_10):
        witnessed = 0
        for g in graphs_up_to_10:
            w = equitable_witness(g, _omega(g))
            if w is not None:
                assert _is_equitable_coloring(g, w, _omega(g)), g.edges()
                # the sweep reports chi_eq = omega for it, as the oracle does
                assert oracle.exact_chi_eq(g) == _omega(g), g.edges()
                witnessed += 1
        assert witnessed >= WITNESSED_AT_OMEGA_UP_TO_10

    def test_colorings_at_every_t_pass_the_checker(self, graphs_up_to_8):
        found = 0
        for g in graphs_up_to_8:
            for t in range(_omega(g), g.n + 1):
                w = equitable_witness(g, t)
                if w is not None:
                    assert _is_equitable_coloring(g, w, t), (g.edges(), t)
                    found += 1
        # of the 1,290 pairs (g, t) that admit an equitable coloring
        assert found >= 1_275

    def test_none_below_omega(self, graphs_up_to_8):
        for g in graphs_up_to_8:
            for t in range(_omega(g)):
                assert equitable_witness(g, t) is None, (g.edges(), t)

    def test_reads_no_adjacency(self):
        for g, key in generate_block_graphs(8):
            equitable_witness(g, _omega(g))
            assert g._adjacency is None, key


@pytest.fixture
def oracle_calls(monkeypatch):
    """The graphs `oracle.exact_chi_eq` is called on, in call order."""
    calls = []
    real = oracle.exact_chi_eq

    def spy(g, node_budget=None):
        calls.append(g)
        return real(g, node_budget)

    monkeypatch.setattr(oracle, "exact_chi_eq", spy)
    return calls


def _repeat_a_color(g, t):
    """The witness with the two smallest members of a block in one color,
    class sizes kept: a member takes the other's color and some third
    vertex of that class takes its own.  None where no class has room."""
    w = equitable_witness(g, t)
    if w is None:
        return None
    col = dict(w.color)
    for b in decompose(g).blocks:
        if len(b) > 1:
            u, v = sorted(b)[:2]
            x = next((x for x in sorted(col) if col[x] == col[v] and x != v), None)
            if x is not None:
                col[u], col[x] = col[v], col[u]
                return Coloring(col, t)
    return None


def _unbalance(g, t):
    """The witness with one vertex moved to a class no smaller than its
    own that none of its blocks holds: proper, and two classes then
    differ by 2 or more.  None where no vertex can move so."""
    w = equitable_witness(g, t)
    if w is None:
        return None
    col, sizes = dict(w.color), w.class_sizes()
    deco = decompose(g)
    for v in sorted(col):
        near = {col[u] for u in deco.closed_neighborhood(v)}
        for c in range(1, t + 1):
            if c not in near and sizes[c - 1] >= sizes[col[v] - 1]:
                col[v] = c
                return Coloring(col, t)
    return None


class TestWitnessFirstSweep:
    def test_matches_the_oracle_only_reference(self, oracle_calls):
        witnessed = 0
        for g, key in generate_block_graphs(9):
            before = len(oracle_calls)
            got = cli._sweep_one(("conjecture", g, key))
            if len(oracle_calls) == before:
                witnessed += 1
                assert g._adjacency is None, key  # a witnessed graph builds none
            assert got == brutes.sweep_one_by_oracle(("conjecture", g, key)), key
            assert cli._sweep_one(("eq1", g, key)) == \
                brutes.sweep_one_by_oracle(("eq1", g, key)), key
        assert witnessed == 639

    @pytest.mark.parametrize("mutant, proper, equitable", [
        (_repeat_a_color, False, True),
        (_unbalance, True, False),
    ], ids=["color-repeated-in-a-block", "unbalanced"])
    def test_an_unchecked_witness_is_not_trusted(
        self, monkeypatch, oracle_calls, mutant, proper, equitable
    ):
        monkeypatch.setattr(cli, "equitable_witness", mutant)
        mutated = 0
        for g, key in generate_block_graphs(8):
            w = mutant(g, _omega(g))
            if w is not None:
                chk = oracle.check_coloring(g, w)
                assert (chk.proper, chk.equitable) == (proper, equitable), key
                mutated += 1
            for check in ("conjecture", "eq1"):
                before = len(oracle_calls)
                got = cli._sweep_one((check, g, key))
                assert len(oracle_calls) == before + 1, (check, key)
                assert got == brutes.sweep_one_by_oracle((check, g, key)), (check, key)
        assert mutated > 150
