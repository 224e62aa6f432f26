"""Factor-role bookkeeping for slotted higher-order maps.

A slot layout lists the factor chain of an N-slot map: the global past,
then alternating slot-input / slot-output factors, then the global
future.  Even positions (0, 2, ...) are inputs of the representing
operator, odd positions are outputs.  A two-slot layout names the six
factors of a two-slot map directly.
"""

from __future__ import annotations

import dataclasses

from .spaces import Spaces


@dataclasses.dataclass(frozen=True)
class SlotLayout:
    """Ordered factor chain H_0 .. H_{2N+1} with labels and dimensions;
    ``labels`` and ``dims`` are computed once at construction and are not
    fields."""

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if len(self.factors) < 2 or len(self.factors) % 2 != 0:
            raise ValueError("a slot layout needs an even number of factors, at least 2")
        spaces = Spaces(self.factors)  # unique labels, int dims >= 1
        object.__setattr__(self, "labels", spaces.labels)
        object.__setattr__(self, "dims", spaces.dims)

    @staticmethod
    def of(*factors) -> "SlotLayout":
        return SlotLayout(tuple((str(lab), int(d)) for lab, d in factors))

    @property
    def n_slots(self) -> int:
        return len(self.factors) // 2 - 1

    def factor(self, m: int) -> tuple[str, int]:
        return self.factors[m]

    def even_factors(self) -> tuple[tuple[str, int], ...]:
        return self.factors[0::2]

    def odd_factors(self) -> tuple[tuple[str, int], ...]:
        return self.factors[1::2]

    def in_space(self) -> Spaces:
        """Input of the representing operator: the even-position factors."""
        return Spaces(self.even_factors())

    def out_space(self) -> Spaces:
        """Output of the representing operator: the odd-position factors."""
        return Spaces(self.odd_factors())

    def check_operator(self, op) -> None:
        """Raise unless the operator's factors are exactly this layout's."""
        want_in = {lab: d for lab, d in self.even_factors()}
        want_out = {lab: d for lab, d in self.odd_factors()}
        have_in = {lab: op.in_space.dim_of(lab) for lab in op.in_space.labels}
        have_out = {lab: op.out_space.dim_of(lab) for lab in op.out_space.labels}
        if have_in != want_in or have_out != want_out:
            raise ValueError(
                f"operator factors {have_in} -> {have_out} do not match "
                f"layout {want_in} -> {want_out}"
            )


@dataclasses.dataclass(frozen=True)
class TwoSlotLayout:
    """The six factors of a two-slot map: global past, two slot wire pairs,
    global future."""

    past: tuple[str, int]
    a_in: tuple[str, int]
    a_out: tuple[str, int]
    b_in: tuple[str, int]
    b_out: tuple[str, int]
    future: tuple[str, int]

    def __post_init__(self):
        Spaces(self.all_factors)  # unique labels, int dims >= 1

    @staticmethod
    def of(past, a_in, a_out, b_in, b_out, future) -> "TwoSlotLayout":
        norm = lambda f: (str(f[0]), int(f[1]))
        return TwoSlotLayout(norm(past), norm(a_in), norm(a_out), norm(b_in), norm(b_out), norm(future))

    @property
    def all_factors(self):
        return (self.past, self.a_in, self.a_out, self.b_in, self.b_out, self.future)

    def in_space(self) -> Spaces:
        return Spaces((self.past, self.a_out, self.b_out))

    def out_space(self) -> Spaces:
        return Spaces((self.a_in, self.b_in, self.future))

    def slot_chain(self, order: str = "ab") -> SlotLayout:
        """View as a causally ordered chain, slot A first ('ab') or B first ('ba')."""
        if order == "ab":
            return SlotLayout((self.past, self.a_in, self.a_out, self.b_in, self.b_out, self.future))
        if order == "ba":
            return SlotLayout((self.past, self.b_in, self.b_out, self.a_in, self.a_out, self.future))
        raise ValueError(f"order must be 'ab' or 'ba', got {order!r}")

    def with_dims(self, past_dim: int, future_dim: int) -> "TwoSlotLayout":
        """Same labels with replaced past/future dimensions (used for blocks)."""
        return TwoSlotLayout(
            (self.past[0], int(past_dim)),
            self.a_in,
            self.a_out,
            self.b_in,
            self.b_out,
            (self.future[0], int(future_dim)),
        )
