"""Extension cocycles and the block construction of extensions.

For representations ``sub`` (dimension d) and ``quo`` (dimension e), an
arrow-indexed family of d_(t a) x e_(s a) blocks is a cocycle when a certain
bilinear expression vanishes on every generating relation; exactly then the
block upper-triangular matrices

    [[sub_a, block_a], [0, quo_a]]

assemble into a valid representation, the middle term of a short exact
sequence sub -> middle -> quo.  The maps here convert between that cocycle
picture and embeddings of ``sub`` into arbitrary middle terms.
"""

from __future__ import annotations

from typing import Mapping

from .linalg import Field, Matrix, hstack, split_blocks, vstack
from .quiver import BoundQuiver, Vertex
from .reps import (HomTriple, Morphism, Representation, _pair_failures,
                   _pair_kernel, _split, _triangular, gl_action, same_data)

ArrowBlocks = Mapping[str, Matrix]


def block_shapes(pres: BoundQuiver, sub_dims, quo_dims) -> dict[str, tuple[int, int]]:
    """Shape d_(t a) x e_(s a) of the block attached to each arrow."""
    return {a: (sub_dims.get(t, 0), quo_dims.get(s, 0))
            for a, s, t in pres.quiver.arrows}


def zero_blocks(pres: BoundQuiver, field: Field, sub_dims, quo_dims) -> dict:
    return {a: Matrix.zeros(field, r, c)
            for a, (r, c) in block_shapes(pres, sub_dims, quo_dims).items()}


def _check_block_shapes(quo: Representation, sub: Representation,
                        blocks: ArrowBlocks):
    if not same_data(quo, sub):
        raise ValueError("representations live over different data")
    for a, (r, c) in block_shapes(quo.pres, sub.dims, quo.dims).items():
        if a not in blocks:
            raise ValueError(f"missing block for arrow {a!r}")
        if blocks[a].shape != (r, c):
            raise ValueError(
                f"arrow {a!r}: block shape {blocks[a].shape} != {(r, c)}")
        if blocks[a].field is not quo.field and blocks[a].field != quo.field:
            raise ValueError(f"arrow {a!r}: field mismatch")


def is_cocycle(quo: Representation, sub: Representation,
               blocks: ArrowBlocks) -> bool:
    """Whether the blocks solve the cocycle equation of every relation:
    for a term c * a_1..a_l the sum over j of c * sub_(a_1) ..
    sub_(a_(j-1)) block_(a_j) quo_(a_(j+1)) .. quo_(a_l), linear in the
    blocks and bilinear in (sub, quo), vanishes; that is, no crossing
    relation of ``ext_quiver`` fails at the triple."""
    _check_block_shapes(quo, sub, blocks)
    return next(_pair_failures("ext", quo, sub, blocks), None) is None


def cocycle_kernel(quo: Representation, sub: Representation
                   ) -> tuple[dict, list[tuple]]:
    """The block shapes, and the kernel basis of the cocycle system of the
    pair: the relations linearized in every arrow's block, as in
    is_cocycle, the crossing layer of ``ext_quiver``."""
    return _pair_kernel("ext", quo, sub)


def cocycle_space_basis(quo: Representation,
                        sub: Representation) -> list[dict[str, Matrix]]:
    """Deterministic basis of the space of cocycles for the pair: one block
    family per vector of the kernel basis of cocycle_kernel's system."""
    shapes, kernel = cocycle_kernel(quo, sub)
    return [split_blocks(quo.field, shapes, vec) for vec in kernel]


class ExtensionTriple:
    """A point (quo, sub, blocks) of an extension variety."""

    def __init__(self, quo: Representation, sub: Representation,
                 blocks: ArrowBlocks, check: bool = True):
        _check_block_shapes(quo, sub, blocks)
        if check and not is_cocycle(quo, sub, blocks):
            raise ValueError("the blocks are not a cocycle for the pair")
        self.quo = quo
        self.sub = sub
        self.blocks = dict(blocks)

    def key(self) -> tuple:
        arrows = self.quo.pres.quiver.arrows
        return (self.quo.key(), self.sub.key(),
                tuple(self.blocks[a] for a, _, _ in arrows))

    def __eq__(self, other):
        return isinstance(other, ExtensionTriple) and other.key() == self.key()

    def __hash__(self):
        return hash(self.key())


def build_extension(quo: Representation, sub: Representation,
                    blocks: ArrowBlocks
                    ) -> tuple[Representation, Morphism, Morphism]:
    """Middle term of the extension determined by a cocycle.

    Returns (middle, incl, proj): middle is [[sub, blocks], [0, quo]]
    (``reps._triangular``), incl embeds ``sub`` as the upper block and proj
    maps onto ``quo``; the sequence is exact.  A relation's value at the
    middle is [[its value at sub, its cocycle value], [0, its value at
    quo]], so one validity check proves both sides points and the blocks a
    cocycle.  An invalid middle raises ValueError naming the first failed
    cocycle equation, else a side off the variety; AssertionError if none.
    """
    _check_block_shapes(quo, sub, blocks)
    field = quo.field
    pres = quo.pres
    middle = _triangular(sub, quo, blocks)
    if not middle.is_valid():
        rel = next(_pair_failures("ext", quo, sub, blocks), None)
        if rel is not None:
            raise ValueError(f"blocks violate the cocycle equation of {rel}")
        for name, rep in (("quotient", quo), ("sub", sub)):
            if not rep.is_valid():
                raise ValueError(f"the {name} is not a point of the variety")
        raise AssertionError(
            "cocycle equations passed but the assembled representation is "
            "invalid; generating relations are inconsistent")
    incl_maps = {}
    proj_maps = {}
    for x in pres.quiver.vertices:
        d, e = sub.dims[x], quo.dims[x]
        incl_maps[x] = vstack(Matrix.identity(field, d),
                              Matrix.zeros(field, e, d))
        proj_maps[x] = hstack(Matrix.zeros(field, e, d),
                              Matrix.identity(field, e))
    return (middle, Morphism._trusted(sub, middle, incl_maps),
            Morphism._trusted(middle, quo, proj_maps))


def splitting_from_mono(mor: Morphism
                        ) -> tuple[dict[Vertex, Matrix], dict[str, Matrix],
                                   Representation]:
    """Split a monomorphism sub -> middle into normal form.

    Returns (g, blocks, quo) with g_x = [f_x | h_x] invertible such that
    conjugating the middle term by g^(-1) gives ``build_extension``'s
    [[sub, blocks], [0, quo]]; the blocks are a cocycle.  h_x is the unit
    columns at the rows that are not pivots of the row-reduced f_x^T, and
    quo is the cokernel's (both read ``reps._split``).  Raises ValueError
    unless ``mor`` is a monomorphism.
    """
    g, _, blocks, quo = _split(mor, "splitting")
    return g, blocks, quo


def mono_triple_from_extension(g: Mapping[Vertex, Matrix],
                               triple: ExtensionTriple) -> HomTriple:
    """Turn an extension plus a base change into a monomorphism triple.

    The result is (sub, g * middle, g . incl); its morphism is always a
    monomorphism since the natural inclusion is split injective.
    """
    middle, incl, _ = build_extension(triple.quo, triple.sub, triple.blocks)
    moved = gl_action(g, middle)
    maps = {x: g[x] @ incl.maps[x] for x in middle.pres.quiver.vertices}
    mor = Morphism(triple.sub, moved, maps)
    return HomTriple(triple.sub, moved, mor)


def extension_from_mono(mor: Morphism) -> ExtensionTriple:
    """Extension triple carried by a monomorphism into a middle term.

    The lower-left blocks of the conjugated middle term vanish because the
    image of a homomorphism is a subrepresentation, so the data always
    assembles into a valid triple.
    """
    _, blocks, quo = splitting_from_mono(mor)
    return ExtensionTriple(quo, mor.source, blocks)
