"""One-vertex combinatorial 2-complexes and LOT complexes.

A complex has named oriented edges and 2-cells with cyclic boundary words.
The complex of a (signed) LOT has one edge per LOT vertex and, per LOT edge
x -> y labeled z, a cell named ``d_<edgeid>`` with boundary x z y^-1 z^-1
(signs on x and y flip the corresponding exponents).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from .errors import ParseError, PreconditionError, StructureError
from .lot import _IDENT, Lot, SignedLot, sublot_vertices

Letter = tuple[str, int]  # (edge name, +1 or -1)


class EdgeEnd(NamedTuple):
    edge: str
    polarity: int  # +1 for x+, -1 for x-

    def __str__(self):
        return f"{self.edge}{'+' if self.polarity > 0 else '-'}"


IntCorners = tuple[tuple[EdgeEnd, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class BoundaryWord:
    """Cyclic word in the complex edges, stored from a fixed starting
    letter: corner i of the cell sits after letter i.  Equality compares
    the stored letters; a surface diagram's face matches its cell up to
    rotation (``diagrams.validate_diagram``)."""
    letters: tuple[Letter, ...]

    def __post_init__(self):
        if not self.letters:
            raise StructureError("boundary words must be nonempty")

    def __len__(self):
        return len(self.letters)

    def inverse(self) -> "BoundaryWord":
        return BoundaryWord(tuple((x, -s) for x, s in reversed(self.letters)))


@dataclass(frozen=True)
class Cell:
    name: str
    boundary: BoundaryWord


@dataclass(frozen=True)
class TwoComplex:
    """Standard 2-complex with a single (implicit) vertex.

    ``_edge_index`` and ``_cell_index`` map each edge name and cell name
    to its position.  ``_int_corners`` holds the link nodes and corners
    on ints (``linkage._complex_corners``): ``build_complex`` makes them,
    and any other complex on first use, so the pass runs at most once per
    complex.  Equality, hashing and repr ignore all three.
    """
    edge_names: tuple[str, ...]
    cells: tuple[Cell, ...]
    name: str = field(default="", compare=False)
    _edge_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _cell_index: dict[str, int] = field(init=False, repr=False, compare=False)
    _int_corners: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        edge_index = dict(zip(self.edge_names, range(len(self.edge_names))))
        if len(edge_index) != len(self.edge_names):
            raise StructureError("duplicate edge names")
        cell_index = {c.name: j for j, c in enumerate(self.cells)}
        if len(cell_index) != len(self.cells):
            raise StructureError("duplicate cell names")
        for c in self.cells:
            for x, _ in c.boundary.letters:
                if x not in edge_index:
                    raise StructureError(
                        f"cell {c.name!r} uses unknown edge {x!r}")
        object.__setattr__(self, "_edge_index", edge_index)
        object.__setattr__(self, "_cell_index", cell_index)

    def cell(self, name: str) -> Cell:
        if name not in self._cell_index:
            raise StructureError(f"no cell named {name!r}")
        return self.cells[self._cell_index[name]]


@dataclass(frozen=True)
class SubcomplexFamily:
    """Pairwise disjoint wedge summands K_1, ..., K_n of a complex."""
    parts: tuple[tuple[frozenset[str], frozenset[str]], ...]  # (edges, cells)
    _valid_on: Optional[TwoComplex] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        seen_e: set[str] = set()
        seen_c: set[str] = set()
        for edges, cells in self.parts:
            if edges & seen_e or cells & seen_c:
                raise StructureError("family parts overlap")
            seen_e |= edges
            seen_c |= cells

    @property
    def all_cells(self) -> frozenset[str]:
        return frozenset().union(*(p[1] for p in self.parts)) if self.parts else frozenset()


def validate_family(cx: TwoComplex, fam: SubcomplexFamily) -> None:
    """Each part must be a subcomplex: part cells only use part edges.
    The family keeps the complex object it last passed on (``_valid_on``,
    outside equality, hashing and repr), which passes again unchecked."""
    if fam._valid_on is cx:
        return
    for i, (edges, cells) in enumerate(fam.parts):
        if not cx._edge_index.keys() >= edges:
            raise StructureError(f"part {i} has unknown edges")
        for cn in cells:
            j = cx._cell_index.get(cn)
            if j is None:
                raise StructureError(f"part {i} has unknown cell {cn!r}")
            if any(x not in edges for x, _ in cx.cells[j].boundary.letters):
                raise StructureError(
                    f"part {i} is not a subcomplex: cell {cn!r} leaves its edges")
    object.__setattr__(fam, "_valid_on", cx)


# ---------------------------------------------------------------------------
# LOT complexes
# ---------------------------------------------------------------------------

def _corner_pass(edge_names: Sequence[str],
                 inits: Iterable[Sequence[int]]) -> IntCorners:
    """The nodes x+, x- of lk(L) per edge (end e is nodes[e]), and its
    corners from each cell's initial ends (of x^s, 2 * edge index +
    (s < 0), whose ^ 1 is its terminal end): corner i joins ends[2 * i],
    the terminal end of a letter, and ends[2 * i + 1], the initial end of
    the next, cyclically; cell j has corners first[j] .. first[j + 1] - 1."""
    init: list[int] = []  # every cell's initial ends, cell after cell
    succ: list[int] = []  # each one's successor in its cell, cyclically
    first = [0]
    for cell in inits:
        init += cell
        succ += (*cell[1:], cell[0])
        first.append(len(init))
    ends = [0] * (2 * len(init))
    ends[::2] = [u ^ 1 for u in init]
    ends[1::2] = succ
    # tuple.__new__ is what the named tuples' _make calls, minus its frame
    return (tuple(map(tuple.__new__, repeat(EdgeEnd),
                      [(x, s) for x in edge_names for s in (1, -1)])),
            tuple(ends), tuple(first))


def build_complex(slot: Union[Lot, SignedLot]) -> TwoComplex:
    """The LOT complex K(Gamma); a plain Lot counts as all-positive.

    One pass over the LOT's int view makes the cells, the indexes and the
    corner pass, from the initial ends of each cell's letters
    (``_corner_pass``), that ``TwoComplex`` keeps; the LOT's invariants
    stand in for the constructor's checks."""
    lot, sign = (slot, None) if isinstance(slot, Lot) else (slot.lot, slot.sign)
    names = tuple(lot.vertices)
    sign = sign or (1,) * len(names)
    cells, inits = [], []
    for i, (t, h, l) in enumerate(lot._iv.edges):
        st, sh, z = sign[t], sign[h], names[l]
        cells.append(Cell(f"d_{i}", BoundaryWord(
            ((names[t], st), (z, 1), (names[h], -sh), (z, -1)))))
        inits.append((2 * t + (st < 0), 2 * l, 2 * h + (sh > 0), 2 * l + 1))
    cx = object.__new__(TwoComplex)
    vars(cx).update(edge_names=names, cells=tuple(cells), name=lot.name,
                    _edge_index=dict(zip(names, range(len(names)))),
                    _cell_index={c.name: j for j, c in enumerate(cells)},
                    _int_corners=_corner_pass(names, inits))
    return cx


def derive_subcomplexes(lot: Lot, sublots: Iterable[frozenset[int]]) -> SubcomplexFamily:
    """Family K(Gamma_1), ..., K(Gamma_n) for pairwise disjoint sub-LOTs.

    Disjoint means edge- and vertex-disjoint, as produced by
    ``complete_set_search``.
    """
    parts = []
    seen_v: set[str] = set()
    seen_e: set[int] = set()
    for ids in sublots:
        vs = sublot_vertices(lot, ids)
        if vs & seen_v or set(ids) & seen_e:
            raise PreconditionError("sub-LOTs overlap")
        seen_v |= vs
        seen_e |= set(ids)
        parts.append((frozenset(vs), frozenset(f"d_{i}" for i in sorted(ids))))
    return SubcomplexFamily(tuple(parts))


def exponent_sum(w: BoundaryWord) -> int:
    return sum(s for _, s in w.letters)


# ---------------------------------------------------------------------------
# complex files
# ---------------------------------------------------------------------------

def parse_complex(text: str) -> TwoComplex:
    """Grammar: ``complex NAME`` | ``edge NAME`` | ``cell NAME = L(,L)*``
    where a letter L is ``x`` or ``-x``."""
    name = ""
    edges: list[str] = []
    cells: list[Cell] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        kw = parts[0]
        if kw == "complex":
            if len(parts) != 2 or not _IDENT.match(parts[1].strip()):
                raise ParseError("expected: complex NAME", lineno)
            name = parts[1].strip()
        elif kw == "edge":
            if len(parts) != 2 or not _IDENT.match(parts[1].strip()):
                raise ParseError("expected: edge NAME", lineno)
            edges.append(parts[1].strip())
        elif kw == "cell":
            m = re.match(r"([A-Za-z][A-Za-z0-9_]*)\s*=\s*(.+)$",
                         parts[1] if len(parts) == 2 else "")
            if not m:
                raise ParseError("expected: cell NAME = LETTER(,LETTER)*", lineno)
            letters = []
            for tok in m.group(2).split(","):
                tok = tok.strip()
                sign = 1
                if tok.startswith("-"):
                    sign = -1
                    tok = tok[1:]
                if not _IDENT.match(tok):
                    raise ParseError(f"bad letter {tok!r}", lineno)
                letters.append((tok, sign))
            cells.append(Cell(m.group(1), BoundaryWord(tuple(letters))))
        else:
            raise ParseError(f"unknown keyword {kw!r}", lineno)
    try:
        return TwoComplex(tuple(edges), tuple(cells), name=name)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def format_complex(cx: TwoComplex) -> str:
    lines = [f"complex {cx.name}" if cx.name else "complex unnamed"]
    lines += [f"edge {x}" for x in cx.edge_names]
    for c in cx.cells:
        word = ",".join(x if s > 0 else f"-{x}" for x, s in c.boundary.letters)
        lines.append(f"cell {c.name} = {word}")
    return "\n".join(lines) + "\n"
