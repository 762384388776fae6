"""Dense row reduction over F_p on plain int lists."""

from __future__ import annotations


class Echelon:
    """A row space kept in reduced echelon form, built incrementally."""

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, list[int]] = {}  # pivot column -> normalized row

    def residual(self, vec: list[int]) -> list[int]:
        p = self.p
        v = list(vec)
        for pc, row in self.rows.items():
            c = v[pc]
            if c:
                for i, x in enumerate(row):
                    if x:
                        v[i] = (v[i] - c * x) % p
        return v

    def add(self, vec: list[int]) -> bool:
        """Insert a vector; False when it was already in the span."""
        p = self.p
        v = self.residual(vec)
        pivot = next((i for i, x in enumerate(v) if x), -1)
        if pivot < 0:
            return False
        inv = pow(v[pivot], p - 2, p)
        if inv != 1:
            v = [(x * inv) % p for x in v]
        for row in self.rows.values():
            c = row[pivot]
            if c:
                for i, x in enumerate(v):
                    if x:
                        row[i] = (row[i] - c * x) % p
        self.rows[pivot] = v
        return True

    def contains(self, vec: list[int]) -> bool:
        return not any(self.residual(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)


def rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot columns)."""
    ech = Echelon(p)
    for row in rows:
        ech.add(row)
    pivots = sorted(ech.rows)
    return [ech.rows[pc] for pc in pivots], pivots


def nullspace(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Canonical kernel basis of the column action x -> rows @ x, one vector
    per free column in ascending column order."""
    ech_rows, pivots = rref(rows, p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    out = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row, pc in zip(ech_rows, pivots):
            if row[fc]:
                v[pc] = (-row[fc]) % p
        out.append(v)
    return out
