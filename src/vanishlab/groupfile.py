"""Group-spec file format: one group per file, parse and emit.

Two headers are supported::

    # free-form comments and blank lines are ignored
    semidirect
    abelian C8xC8
    complement C6
    matrix 4 3 / 5 1        # one `matrix` line per complement generator

    perm
    degree 7
    gen (1 2 3 4 5 6 7)
    gen (1 2 3)

`matrix` rows are separated by `/`; row i holds the coordinates of the
image of abelian generator i.  Parse failures carry a 1-based line and
column; a valid file whose group exceeds the size cap raises
GroupSizeError instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian_core import AbelianDomainError, parse_abelian_literal
from .group_engine import (
    BUILTIN_H,
    FiniteGroup,
    GeneratorImageError,
    GroupDomainError,
    GroupSizeError,
    builtin_h,
    cycles_of,
    from_permutations,
    parse_cycles,
    semidirect_from_matrices,
)

BUILTIN_COMPLEMENTS = tuple(BUILTIN_H)


class GroupFileError(ValueError):
    """Parse failure with position information."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass
class _Line:
    number: int
    text: str  # the line without its comment and surrounding whitespace
    offset: int  # the file column of text[0], less one


def _meaningful_lines(text: str) -> list[_Line]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            out.append(_Line(i, body.strip(), len(body) - len(body.lstrip())))
    return out


def _keyword(line: _Line, expected: str) -> tuple[str, int]:
    """The argument of a line `expected argument`, and its file column."""
    head, _, rest = line.text.partition(" ")
    if head != expected:
        raise GroupFileError(f"expected {expected!r}, found {head!r}", line.number)
    if not rest.strip():
        raise GroupFileError(f"{expected!r} needs an argument", line.number,
                             line.offset + len(head) + 2)
    return rest.strip(), line.offset + len(line.text) - len(rest.strip()) + 1


def _parse_matrix(line: _Line, rank: int) -> list[list[int]]:
    body, _ = _keyword(line, "matrix")
    pos = len(line.text) - len(body)  # the body ends the stripped line
    rows = []
    for part in body.split("/"):
        row = []
        for tok in part.split():
            pos = line.text.index(tok, pos)  # tokens appear in line order
            try:
                row.append(int(tok))
            except ValueError:
                raise GroupFileError(f"matrix entry {tok!r} is not an integer",
                                     line.number, line.offset + pos + 1) from None
            pos += len(tok)
        rows.append(row)
    if len(rows) != rank or any(len(r) != rank for r in rows):
        raise GroupFileError(
            f"matrix must be {rank}x{rank} for this abelian group", line.number
        )
    return rows


def parse_group(text: str) -> FiniteGroup:
    lines = _meaningful_lines(text)
    if not lines:
        raise GroupFileError("empty group file", 1)
    header = lines[0].text
    if header == "semidirect":
        return _parse_semidirect(lines)
    if header == "perm":
        return _parse_perm(lines)
    raise GroupFileError(
        f"unknown header {header!r} (expected 'semidirect' or 'perm')",
        lines[0].number,
    )


def _parse_semidirect(lines: list[_Line]) -> FiniteGroup:
    if len(lines) < 3:
        raise GroupFileError("semidirect needs 'abelian' and 'complement' lines",
                             lines[-1].number)
    literal, column = _keyword(lines[1], "abelian")
    try:
        A = parse_abelian_literal(literal)
    except AbelianDomainError as exc:
        raise GroupFileError(str(exc), lines[1].number, column) from None
    h_name, column = _keyword(lines[2], "complement")
    h_name = h_name.upper()
    if h_name not in BUILTIN_COMPLEMENTS:
        raise GroupFileError(
            f"complement must be one of {', '.join(BUILTIN_COMPLEMENTS)}",
            lines[2].number, column,
        )
    H = builtin_h(h_name)
    matrices = [_parse_matrix(line, A.rank) for line in lines[3:]]
    gens = len(H.compiled.gens)
    if len(matrices) != gens:
        raise GroupFileError(f"{h_name} needs {gens} matrix line(s), got {len(matrices)}",
                             lines[-1].number)
    try:
        return semidirect_from_matrices(A, H, matrices, name=f"{literal}:{h_name}")
    except GroupSizeError:
        raise
    except GeneratorImageError as exc:
        raise GroupFileError(str(exc), lines[3 + exc.generator].number) from None
    except (GroupDomainError, AbelianDomainError) as exc:  # at the first matrix line
        raise GroupFileError(str(exc), lines[3].number) from None


def _parse_perm(lines: list[_Line]) -> FiniteGroup:
    if len(lines) < 3:
        raise GroupFileError("perm needs a 'degree' line and at least one 'gen'",
                             lines[-1].number)
    degree_text, column = _keyword(lines[1], "degree")
    try:
        degree = int(degree_text)
    except ValueError:
        raise GroupFileError(f"degree {degree_text!r} is not an integer",
                             lines[1].number, column) from None
    if not 1 <= degree <= 64:
        raise GroupFileError("degree must be between 1 and 64", lines[1].number, column)
    gens = []
    for line in lines[2:]:
        try:
            gens.append(parse_cycles(_keyword(line, "gen")[0], degree))
        except GroupDomainError as exc:
            raise GroupFileError(str(exc), line.number) from None
    return from_permutations(degree, gens, name=f"perm{degree}")


def parse_group_file(path: str) -> FiniteGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group(fh.read())


# -- emission ---------------------------------------------------------------


def emit_group(G: FiniteGroup) -> str:
    """Serialize a group we know how to rebuild.  Semidirect products keep
    their presentation; permutation groups keep their generators; anything
    else falls back to the regular permutation representation when small."""
    spec = getattr(G, "semidirect_spec", None)
    if spec is not None and spec.H.name in BUILTIN_COMPLEMENTS:
        out = ["semidirect",
               "abelian " + ("x".join(f"C{d}" for d in spec.A.factor_orders) or "C1"),
               f"complement {spec.H.name}"]
        for s in spec.H.compiled.gens:
            hom = spec.action[s]
            rows = [" ".join(str(c) for c in img.coords) for img in hom.images]
            out.append("matrix " + " / ".join(rows))
        return "\n".join(out) + "\n"
    sample = G.elements[0]
    if (
        isinstance(sample, tuple)
        and all(isinstance(v, int) for v in sample)
        and sorted(sample) == list(range(len(sample)))
    ):
        degree = len(sample)
        out = ["perm", f"degree {degree}"]
        for g in G.generators:
            out.append("gen " + cycles_of(g))
        return "\n".join(out) + "\n"
    if G.order > 64:
        raise GroupDomainError(
            "cannot serialize this group: no semidirect presentation and the "
            "regular representation would exceed degree 64"
        )
    # regular representation on the element list
    out = ["perm", f"degree {G.order}"]
    for s in G.compiled.gens:
        perm = G.compiled.right_translation(s)
        out.append("gen " + cycles_of(tuple(perm.tolist())))
    return "\n".join(out) + "\n"
